package server

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// paceLab is a server on netsim under a simulated clock: board pacing
// is judged in simulated time only, so every assertion below is exact.
// The probe loop is parked (ProbeInterval: an hour of simulated time).
type paceLab struct {
	t   *testing.T
	net *netsim.Net
	srv *Server
	sim *clock.Sim
}

// paceParked is how many timers sit on the simulated clock while no
// board batch is open: the probe tick alone.
const paceParked = 1

func newPaceLab(t *testing.T) *paceLab {
	t.Helper()
	n := netsim.New(12)
	sim := clock.NewSim(time.Unix(1000, 0))
	srv, err := New(Config{Network: n, Addr: "server:1", Clock: sim, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	waitFor(t, "the probe loop to park on the clock", func() bool { return sim.Waiters() == paceParked })
	return &paceLab{t: t, net: n, srv: srv, sim: sim}
}

// boardTap records, in arrival order, the board sequence numbers a
// client is sent — the top-level operation of each board event, then
// its More — how many events carried them, and how many of those
// events carried more than one author's operations.
type boardTap struct {
	mu     sync.Mutex
	seqs   []int64
	events int
	mixed  int
}

func (tap *boardTap) observe(msg protocol.Message) {
	if msg.Type != protocol.TChatEvent && msg.Type != protocol.TAnnotateEvent {
		return
	}
	var body protocol.SequencedBody
	if msg.Into(&body) != nil || body.Seq == 0 {
		return
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.events++
	tap.seqs = append(tap.seqs, body.Seq)
	mixed := false
	for _, more := range body.More {
		tap.seqs = append(tap.seqs, more.Seq)
		mixed = mixed || more.Author != body.Author
	}
	if mixed {
		tap.mixed++
	}
}

func (tap *boardTap) snapshot() (seqs []int64, events int) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]int64(nil), tap.seqs...), tap.events
}

func (tap *boardTap) mixedEvents() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.mixed
}

func (l *paceLab) dial(name string) (*client.Client, *boardTap) {
	l.t.Helper()
	tap := &boardTap{}
	c, err := client.Dial(client.Config{
		Network: l.net.From(name + "host"), Addr: "server:1",
		Name: name, Role: "participant", Priority: 2,
		Timeout: 2 * time.Second,
		OnEvent: tap.observe,
	})
	if err != nil {
		l.t.Fatalf("Dial(%s): %v", name, err)
	}
	l.t.Cleanup(c.Close)
	if err := c.Join("hall"); err != nil {
		l.t.Fatal(err)
	}
	return c, tap
}

// flushes reads the per-cause logged-event counters.
func (l *paceLab) flushes() (by [numFlushCauses]int64, total int64) {
	for c := range by {
		by[c] = l.srv.boardFlushes[c].Load()
		total += by[c]
	}
	return by, total
}

// awaitArmed waits until the board loop holds a board deadline timer
// on the simulated clock, so the next Advance cannot slip in between
// the loop reading the time and arming the timer.
func (l *paceLab) awaitArmed() {
	l.t.Helper()
	waitFor(l.t, "the board loop to arm a board deadline", func() bool { return l.sim.Waiters() > paceParked })
}

// awaitBoard waits for every tap to have been sent n board operations
// and requires them in board order: log order = board order.
func awaitBoard(t *testing.T, n int, taps ...*boardTap) {
	t.Helper()
	for i, tap := range taps {
		waitFor(t, fmt.Sprintf("tap %d to see %d board ops", i, n), func() bool {
			seqs, _ := tap.snapshot()
			return len(seqs) >= n
		})
		seqs, _ := tap.snapshot()
		if len(seqs) != n {
			t.Fatalf("tap %d saw %d board ops, want %d", i, len(seqs), n)
		}
		for j, seq := range seqs {
			if seq != int64(j+1) {
				t.Fatalf("tap %d: op %d arrived with board seq %d — log order must equal board order (%v)", i, j+1, seq, seqs)
			}
		}
	}
}

// TestBoardPaceLectureNeverHeld: one author at 50 lines/s is not a
// storm. Every line is its own logged event, logged on arrival.
func TestBoardPaceLectureNeverHeld(t *testing.T) {
	l := newPaceLab(t)
	chair, _ := l.dial("chair")
	_, viewerTap := l.dial("viewer")

	const lines = 50
	for i := 0; i < lines; i++ {
		l.sim.Advance(20 * time.Millisecond)
		if err := chair.Chat("hall", fmt.Sprintf("line %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	by, total := l.flushes()
	if by[flushInline] != lines || total != lines {
		t.Errorf("flushes by cause = %v, want all %d inline", by, lines)
	}
	if held := l.srv.boardHold.Count(); held != 0 {
		t.Errorf("%d batches were held; a 50 lines/s author must never be", held)
	}
	awaitBoard(t, lines, viewerTap)
	if _, events := viewerTap.snapshot(); events != lines {
		t.Errorf("viewer received %d board events for %d lines, want one per line", events, lines)
	}
}

// TestBoardPaceTrailingEdge: a line inside the slot of the one before
// is held to the end of that slot — not to any fixed tick — and a
// batch past its deadline never captures a later line, whether the loop
// or the later line gets to it first.
func TestBoardPaceTrailingEdge(t *testing.T) {
	l := newPaceLab(t)
	chair, _ := l.dial("chair")
	_, viewerTap := l.dial("viewer")

	chat := func(text string) {
		t.Helper()
		if err := chair.Chat("hall", text); err != nil {
			t.Fatal(err)
		}
	}
	chat("one") // leading edge
	l.sim.Advance(time.Millisecond)
	chat("two") // 1 ms into the slot: held
	if by, total := l.flushes(); total != 1 || by[flushInline] != 1 {
		t.Fatalf("after two lines 1 ms apart: flushes %v, want only the first logged", by)
	}
	l.awaitArmed()

	// Up to the last instant of the slot nothing moves...
	l.sim.Advance(boardSlot - time.Millisecond - time.Microsecond)
	if _, total := l.flushes(); total != 1 {
		t.Fatalf("the held line was logged %v before its deadline", time.Microsecond)
	}
	// ...and at lastLog + slot the loop logs it, a slot after the first
	// line and 2.125 ms after it arrived.
	l.sim.Advance(time.Microsecond)
	waitFor(t, "the deadline flush", func() bool { _, total := l.flushes(); return total == 2 })
	if by, _ := l.flushes(); by[flushDeadline] != 1 {
		t.Errorf("flushes %v, want the held line flushed by its deadline", by)
	}
	if n, held := l.srv.boardHold.Count(), l.srv.boardHold.Sum(); n != 1 || time.Duration(held*float64(time.Second)).Round(time.Microsecond) != boardSlot-time.Millisecond {
		t.Errorf("hold histogram: %d batches, %.6fs; want one batch held %v", n, held, boardSlot-time.Millisecond)
	}

	// A fourth line collides with the third, and this time the loop is
	// kept from the open-batch set, so the batch goes stale: the fifth
	// line, two slots on, must flush it and still log inline itself.
	l.sim.Advance(boardSlot)
	chat("three")
	l.sim.Advance(time.Millisecond)
	chat("four")
	l.awaitArmed()
	l.srv.boMu.Lock()
	l.sim.Advance(2 * boardSlot)
	chat("five")
	by, total := l.flushes()
	l.srv.boMu.Unlock()
	if total != 5 || by[flushInline] != 3 || by[flushDeadline] != 2 {
		t.Errorf("flushes %v (total %d), want 3 inline + 2 deadline: a stale batch must not capture the next line", by, total)
	}
	awaitBoard(t, 5, viewerTap)
	if _, events := viewerTap.snapshot(); events != 5 {
		t.Errorf("viewer received %d board events for 5 lines, want 5", events)
	}
}

// TestBoardPaceStormBound: a sustained single-author storm is paced to
// one timer-driven event per slot; only the boardBatchMax cap adds to
// that.
func TestBoardPaceStormBound(t *testing.T) {
	l := newPaceLab(t)
	artist, artistTap := l.dial("artist")
	_, viewerTap := l.dial("viewer")

	// Phase 1, boardBatchMax/2 ops per slot: the deadline closes every
	// batch. Phase 2, 156 ops per slot: the cap closes most of them.
	const perPhase = 640
	start := l.sim.Now()
	for _, gap := range []time.Duration{2 * boardSlot / boardBatchMax, 20 * time.Microsecond} {
		for i := 0; i < perPhase; i++ {
			l.sim.Advance(gap)
			if err := artist.Annotate("hall", "draw", "stroke"); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.sim.Advance(boardSlot) // past the last batch's deadline
	l.srv.FlushBoardBatches()
	awaitBoard(t, 2*perPhase, artistTap, viewerTap)

	slots := int64(l.sim.Now().Sub(start)/boardSlot) + 1
	capped := int64((2*perPhase + boardBatchMax - 1) / boardBatchMax)
	by, total := l.flushes()
	if paced := by[flushInline] + by[flushDeadline] + by[flushExplicit]; paced > slots {
		t.Errorf("%d paced events in %d slots (flushes %v); the timer may log one per slot", paced, slots, by)
	}
	if by[flushFull] > capped || total > slots+capped {
		t.Errorf("logged %d events (flushes %v) for %d ops over %d slots, want ≤ %d + %d", total, by, 2*perPhase, slots, slots, capped)
	}
	if by[flushDeadline] == 0 || by[flushFull] == 0 {
		t.Errorf("flushes %v: the storm should exercise both the deadline and the cap", by)
	}
}

// TestBoardPaceAlternationKeepsOrder: alternating authors share
// batches and chat/annotate changes split them, without ever reordering
// them — every client is sent the operations in board order, More bursts
// included, each still attributed to its own author.
func TestBoardPaceAlternationKeepsOrder(t *testing.T) {
	l := newPaceLab(t)
	ann, annTap := l.dial("ann")
	bob, bobTap := l.dial("bob")
	viewer, viewerTap := l.dial("viewer")

	type step struct {
		who   *client.Client
		chat  bool
		burst int
		then  time.Duration // simulated time after the burst
	}
	script := []step{
		{ann, false, 5, 0}, {bob, false, 3, 0}, {ann, true, 2, 0}, {ann, false, 2, boardSlot},
		{bob, true, 1, 0}, {bob, true, 4, 100 * time.Microsecond}, {ann, false, 70, 0}, {bob, false, 1, 3 * boardSlot},
		{ann, true, 1, 0}, {ann, false, 1, 0}, {ann, true, 1, 0},
	}
	want := 0
	var authors []string
	for _, st := range script {
		for i := 0; i < st.burst; i++ {
			var err error
			if st.chat {
				err = st.who.Chat("hall", fmt.Sprintf("line %d", want))
			} else {
				err = st.who.Annotate("hall", "draw", fmt.Sprintf("stroke %d", want))
			}
			if err != nil {
				t.Fatal(err)
			}
			want++
			authors = append(authors, st.who.MemberID())
		}
		l.sim.Advance(st.then)
	}
	l.srv.FlushBoardBatches()
	awaitBoard(t, want, annTap, bobTap, viewerTap)

	if _, events := viewerTap.snapshot(); events >= want {
		t.Errorf("viewer received %d events for %d ops; the bursts should have batched", events, want)
	}
	if viewerTap.mixedEvents() == 0 {
		t.Errorf("no event carried two authors' operations; alternating annotators should share batches")
	}
	if by, _ := l.flushes(); by[flushType] == 0 || by[flushFull] == 0 || by[flushDeadline] == 0 || by[flushInline] == 0 {
		t.Errorf("flushes %v: the script should close batches every way there is", by)
	}
	for _, c := range []*client.Client{ann, bob, viewer} {
		waitFor(t, "replica convergence", func() bool { return c.Board("hall").Seq() == int64(want) })
		for i, op := range c.Board("hall").Since(0) {
			if op.Author != authors[i] {
				t.Fatalf("%s: op %d attributed to %s, want %s", c.MemberID(), i+1, op.Author, authors[i])
			}
		}
	}
}

// TestBoardPaceByteBound: a batch is bounded by bytes as well as by
// count. Two strokes that each fit an event but together exceed the
// transport's message limit flush as two events, and the viewer gets
// both; a line too large for any event is refused before it is
// appended.
func TestBoardPaceByteBound(t *testing.T) {
	l := newPaceLab(t)
	artist, _ := l.dial("artist")
	viewer, viewerTap := l.dial("viewer")

	if err := artist.Chat("hall", "one"); err != nil { // leading edge
		t.Fatal(err)
	}
	stroke := strings.Repeat("x", transport.MaxMessageSize/2+1)
	for i := 0; i < 2; i++ {
		if err := artist.Annotate("hall", "draw", stroke); err != nil {
			t.Fatal(err)
		}
	}
	l.srv.FlushBoardBatches()
	awaitBoard(t, 3, viewerTap)
	if by, total := l.flushes(); total != 3 || by[flushFull] != 1 {
		t.Errorf("flushes %v (total %d), want the second stroke's byte bound to close the first's batch", by, total)
	}

	err := artist.Chat("hall", strings.Repeat("x", boardBatchBytes))
	if !errors.Is(err, client.ErrDenied) || !strings.Contains(err.Error(), "too_large") {
		t.Fatalf("an oversized line: err = %v, want a too_large refusal", err)
	}
	if seq := l.srv.board("hall").board.Seq(); seq != 3 {
		t.Errorf("board at seq %d after the refusal, want 3: a refused line must not be appended", seq)
	}
	if err := viewer.Chat("hall", "still here"); err != nil {
		t.Fatalf("the viewer's session did not survive: %v", err)
	}
	l.srv.FlushBoardBatches()
	awaitBoard(t, 4, viewerTap)
}

// TestBoardPaceCloseWithArmedDeadline: closing the server while a batch
// is open and the loop sleeps on its deadline strands no goroutine.
func TestBoardPaceCloseWithArmedDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	l := newPaceLab(t)
	chair, _ := l.dial("chair")
	for _, line := range []string{"one", "two"} {
		if err := chair.Chat("hall", line); err != nil {
			t.Fatal(err)
		}
	}
	l.awaitArmed()
	if _, total := l.flushes(); total != 1 {
		t.Fatalf("%d events logged, want the second line still held", total)
	}
	chair.Close()
	l.srv.Close() // waits for the board loop, armed or not
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before })
}

// TestBoardPaceMetricsExported: the hold histogram, the per-cause flush
// counters and the log-append error counter are on /metrics and in the
// operator's catalogue.
func TestBoardPaceMetricsExported(t *testing.T) {
	l := newPaceLab(t)
	chair, _ := l.dial("chair")
	for _, line := range []string{"one", "two"} {
		if err := chair.Chat("hall", line); err != nil {
			t.Fatal(err)
		}
	}
	if l.srv.FlushBoardBatches() != 1 {
		t.Fatal("the second line should have been held for the explicit flush")
	}
	reg := metrics.NewRegistry()
	l.srv.RegisterMetrics(reg)
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	catalogue, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`dmps_board_flush_total{cause="inline"} 1`,
		`dmps_board_flush_total{cause="explicit"} 1`,
		`dmps_board_flush_total{cause="deadline"} 0`,
		`dmps_board_hold_seconds_count 1`,
		`dmps_errors_total{site="log_append"} 0`,
	} {
		if !strings.Contains(page.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
		name := strings.TrimSuffix(series[:strings.IndexAny(series, "{ ")], "_count")
		if !strings.Contains(string(catalogue), "`"+name) {
			t.Errorf("docs/OPERATIONS.md does not catalogue %s", name)
		}
	}
}

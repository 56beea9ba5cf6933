package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/client"
	"dmps/internal/protocol"
)

// Board-storm sizes: two annotators, a fan-out 16 wide, and at most 128
// operations posted but not yet applied by the slowest listener. The
// window must stay well inside a session's 256-message send queue: when
// the two authors alternate, every operation is its own logged event,
// and a window as large as the queue overflows it now and then — a
// slow-consumer drop, which the benchmark counts as a failure.
const (
	stormAnnotators = 2
	stormListeners  = 16
	stormWindow     = 128
)

// storm is the free-access annotation storm on the solo server: two
// annotators post strokes as fast as they are delivered. The loop is
// closed on delivery — an annotator may run at most stormWindow
// operations ahead of the slowest listener — so the rate measured is
// the rate at which every listener applies operations.
type storm struct {
	seed       int64
	group      string
	annotators []*client.Client
	listeners  []*stormTap
	rec        *spanRecorder
	cap        *capture
	posted     atomic.Int64
	sent       [stormAnnotators]int64
}

// stormTap is one listener session.
type stormTap struct {
	c     *client.Client
	group string
	idx   int
	sink  sink
	// applied is the listener's board sequence, published for the
	// annotators' flow control and the throughput sampler.
	applied atomic.Int64

	mu     sync.Mutex
	events int64
	cap    *capture
}

func (s *stormTap) onEvent(msg protocol.Message) {
	if msg.Type != protocol.TAnnotateEvent || msg.Group != s.group {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied.Store(s.c.Board(s.group).Seq())
	s.events++
	s.cap.offer(msg)
	// Latency is sampled, not taken everywhere: each logged event is
	// decoded a second time at exactly one listener (its sequence picks
	// which), so the sixteen listeners pool samples of every operation
	// while the tap adds a sixteenth of a decode to each.
	if msg.CSeq%stormListeners != int64(s.idx) {
		return
	}
	var body protocol.SequencedBody
	if msg.Into(&body) != nil {
		return
	}
	op := &body
	for i := 0; ; i++ {
		if cut := strings.IndexByte(op.Data, ';'); cut > 0 {
			if ns, err := strconv.ParseInt(op.Data[:cut], 10, 64); err == nil {
				s.sink.add(now, now.Sub(epoch.Add(time.Duration(ns))))
			}
		}
		if i >= len(body.More) {
			break
		}
		op = &body.More[i]
	}
}

func setupStorm(d *deployment, cfg runConfig, rec *spanRecorder) (scenario, error) {
	st := &storm{seed: cfg.seed, group: "studio", rec: rec}
	if cfg.traced {
		st.cap = &capture{}
	}
	for i := 0; i < stormAnnotators; i++ {
		c, err := d.dial(fmt.Sprintf("annotator%d", i), "participant", cfg.traced, nil)
		if err != nil {
			return nil, err
		}
		if err := d.join(c, st.group); err != nil {
			return nil, err
		}
		st.annotators = append(st.annotators, c)
	}
	for i := 0; i < stormListeners; i++ {
		tap := &stormTap{group: st.group, idx: i}
		if i == 0 {
			tap.cap = st.cap
		}
		c, err := d.dial(fmt.Sprintf("listener%d", i), "participant", cfg.traced, tap.onEvent)
		if err != nil {
			return nil, err
		}
		tap.mu.Lock()
		tap.c = c
		tap.mu.Unlock()
		if err := d.join(c, st.group); err != nil {
			return nil, err
		}
		st.listeners = append(st.listeners, tap)
	}
	return st, nil
}

func (st *storm) probe() probeTarget {
	sessions := make([]*client.Client, len(st.listeners))
	for i, tap := range st.listeners {
		sessions[i] = tap.c
	}
	req := protocol.MustNew(protocol.TAnnotate, protocol.AnnotateBody{Kind: "draw", Data: strokeData(0, 0, 0, "M 10 10 L 20 20")})
	req.Group = st.group
	return probeTarget{node: 0, group: st.group, sessions: sessions, capture: st.cap, request: req}
}

// slowest is the board sequence every listener has reached.
func (st *storm) slowest() int64 {
	low := st.listeners[0].applied.Load()
	for _, tap := range st.listeners[1:] {
		if a := tap.applied.Load(); a < low {
			low = a
		}
	}
	return low
}

// strokeData is an annotation's payload: when it was sent, who sent it
// and which of theirs it is, then the stroke. The listeners' latency
// samples and the order check both read it back.
func strokeData(sentNS int64, annotator int, idx int64, stroke string) string {
	return strconv.FormatInt(sentNS, 10) + ";" + strconv.Itoa(annotator) + ";" + strconv.FormatInt(idx, 10) + ";" + stroke
}

func (st *storm) run(warmup, length time.Duration, t *tally) outcome {
	start := time.Now()
	win := window{start: start.Add(warmup), end: start.Add(warmup + length)}
	for _, tap := range st.listeners {
		tap.sink.arm(win)
	}
	// The throughput sampler reads the slowest listener's sequence at
	// each part's boundary; the difference over the elapsed time is that
	// part's rate of operations applied at every listener.
	marks := make([]int64, win.parts()+1)
	times := make([]time.Time, win.parts()+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range marks {
			time.Sleep(time.Until(win.boundary(i)))
			marks[i], times[i] = st.slowest(), time.Now()
		}
	}()
	for a := range st.annotators {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			st.annotate(a, win, t)
		}(a)
	}
	wg.Wait()

	posted := st.posted.Load()
	t.attempt(posted * stormListeners)
	for i, tap := range st.listeners {
		tap := tap
		if !waitUntil(func() bool { return tap.applied.Load() >= posted }) {
			t.fail(posted-tap.applied.Load(), "listener%d: operations missing at run end", i)
		}
	}

	out := outcome{layer: map[string]float64{}}
	sinks := make([]*sink, len(st.listeners))
	for i, tap := range st.listeners {
		sinks[i] = &tap.sink
	}
	out.lat = merged(win, sinks...)
	for i := 1; i < len(marks); i++ {
		out.rates = append(out.rates, float64(marks[i]-marks[i-1])/times[i].Sub(times[i-1]).Seconds())
	}
	witness := st.listeners[0]
	witness.mu.Lock()
	out.allEvents, out.allOps = witness.events, posted
	witness.mu.Unlock()
	return out
}

// annotate is one annotator's loop: post while fewer than stormWindow
// operations are outstanding at the slowest listener.
func (st *storm) annotate(a int, win window, t *tally) {
	rng := rand.New(rand.NewSource(st.seed + int64(a)))
	c := st.annotators[a]
	for idx := int64(0); time.Now().Before(win.end); idx++ {
		if st.posted.Load()-st.slowest() >= stormWindow {
			if !waitUntil(func() bool { return st.posted.Load()-st.slowest() < stormWindow }) {
				t.fail(1, "annotator%d: delivery window stayed full for %v", a, waitLimit)
				return
			}
		}
		stroke := payload(rng, 8, 24)
		t0 := time.Now()
		ok := t.op("annotate", c.Annotate(st.group, "draw", strokeData(sinceEpoch(t0), a, idx, stroke)))
		if !ok {
			return // the order check needs a dense sequence; stop this annotator
		}
		st.posted.Add(1)
		st.sent[a] = idx + 1
		if win.part(t0) >= 0 && idx%64 == 0 {
			st.rec.add(0, "client.Annotate", t0, time.Now())
		}
	}
}

// check verifies every listener's board: each annotator's operations
// appear in the order it posted them, none missing, none extra, and all
// boards agree.
func (st *storm) check() []string {
	var v []string
	var first []string
	for i, tap := range st.listeners {
		ops := tap.c.Board(st.group).Ops()
		var next [stormAnnotators]int64
		data := make([]string, len(ops))
		for j, op := range ops {
			data[j] = op.Data
			a, idx := -1, int64(-1)
			if f := strings.SplitN(op.Data, ";", 4); len(f) == 4 {
				if n, err := strconv.Atoi(f[1]); err == nil && n >= 0 && n < stormAnnotators {
					a = n
				}
				if n, err := strconv.ParseInt(f[2], 10, 64); err == nil {
					idx = n
				}
			}
			if a < 0 || idx != next[a] {
				v = append(v, fmt.Sprintf("listener%d: op %d %q out of order (annotator next %v)", i, j+1, op.Data, next))
				break
			}
			next[a]++
		}
		if next != st.sent {
			v = append(v, fmt.Sprintf("listener%d: applied %v operations per annotator, posted %v", i, next, st.sent))
		}
		if i == 0 {
			first = data
			continue
		}
		if len(data) != len(first) {
			continue // already reported by the count check
		}
		for j := range data {
			if data[j] != first[j] {
				v = append(v, fmt.Sprintf("listener%d: op %d differs from listener0", i, j+1))
				break
			}
		}
	}
	return v
}

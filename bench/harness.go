package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dmps/internal/protocol"
)

// epoch anchors every timestamp the benchmark embeds in a payload or a
// span: offsets from it are monotonic and fit an int64 of nanoseconds.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(epoch)) }

// window is the measured interval, cut into parts of about a second.
// Work completing before start is warm-up and is discarded. The parts
// exist because the machines this runs on are not quiet: a neighbour
// can slow a stretch of seconds, so every figure is first taken per
// part and then summarised across the parts.
type window struct {
	start, end time.Time
}

func (w window) length() time.Duration { return w.end.Sub(w.start) }

// parts is the number of sub-windows: one per whole second of window.
func (w window) parts() int {
	if n := int(w.length().Round(time.Second) / time.Second); n > 1 {
		return n
	}
	return 1
}

// part returns which sub-window t falls in, or -1 outside the window.
func (w window) part(t time.Time) int {
	if t.Before(w.start) || !t.Before(w.end) {
		return -1
	}
	return int(int64(t.Sub(w.start)) * int64(w.parts()) / int64(w.length()))
}

// boundary is the time at which part i starts (part parts() is the end).
func (w window) boundary(i int) time.Time {
	return w.start.Add(w.length() * time.Duration(i) / time.Duration(w.parts()))
}

// sink collects the completions one goroutine observes. Each observer
// owns a sink so the hot path never contends; the lock only orders the
// observer against the final merge.
type sink struct {
	mu  sync.Mutex
	win window
	lat [][]float64 // per part: latencies in milliseconds
}

func (s *sink) arm(w window) {
	s.mu.Lock()
	s.win, s.lat = w, make([][]float64, w.parts())
	s.mu.Unlock()
}

// add records one completion, stamped at, with the given latency.
func (s *sink) add(at time.Time, lat time.Duration) {
	s.mu.Lock()
	if p := s.win.part(at); p >= 0 {
		s.lat[p] = append(s.lat[p], float64(lat)/float64(time.Millisecond))
	}
	s.mu.Unlock()
}

// merged pools sinks armed with the same window, part by part.
func merged(w window, sinks ...*sink) [][]float64 {
	lat := make([][]float64, w.parts())
	for _, s := range sinks {
		s.mu.Lock()
		for p := range s.lat {
			lat[p] = append(lat[p], s.lat[p]...)
		}
		s.mu.Unlock()
	}
	return lat
}

// completionRates turns per-part completions into per-part rates.
func completionRates(w window, lat [][]float64) []float64 {
	per := w.length().Seconds() / float64(w.parts())
	rates := make([]float64, len(lat))
	for p, part := range lat {
		rates[p] = float64(len(part)) / per
	}
	return rates
}

// tally counts operations against the number attempted. A request that
// errors, is refused or times out, a delivery missing when the run
// ends, a resume that does not converge and a slow-consumer drop each
// count once as failed.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string // the first few failures, for the report
}

func (t *tally) attempt(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func (t *tally) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.failed += n
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// op counts one attempted operation and, when err is set, its failure.
func (t *tally) op(what string, err error) bool {
	t.attempt(1)
	if err != nil {
		t.fail(1, "%s: %v", what, err)
		return false
	}
	return true
}

// outcome is what one driven run of a scenario measured.
type outcome struct {
	// lat holds the workload's operation latencies (ms) completed inside
	// the window, per part, and rates each part's completions per second.
	lat   [][]float64
	rates []float64
	// delivered, set by the open loop only, replaces the per-part rates
	// as its throughput: the offered rate is fixed by the schedule, so
	// what is measured is operations delivered over the time it took.
	delivered float64
	// allOps counts operations over the whole driven run, warm-up and
	// drain included, and allEvents the logged events one witness session
	// per group received in it — what the layers' own counters, read
	// before and after the run, are divided by.
	allOps    int64
	allEvents int64
	// layer carries the numbers only this workload can measure
	// (server.hold_ms on lecture, the client.* resume counts on
	// rejoin-storm, gen_lag_p99_ms for the open loop).
	layer map[string]float64
}

// scenario is one workload, set up against a booted deployment.
type scenario interface {
	// run drives the load through a discarded warm-up and then the
	// measured window, drains what is in flight, and counts every
	// operation in the tally.
	run(warmup, length time.Duration, t *tally) outcome
	// check verifies the outputs once the run is over and returns the
	// violations found.
	check() []string
	// probe names what the layer probes replay against: the owner node's
	// index, the group, and the sessions that receive its fan-out.
	probe() probeTarget
}

// spanRecorder keeps the traced run's spans in memory until the
// benchmark ends. IDs are 1-based; parent 0 is a root.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer, seen from the benchmark's side
// of the call. Start and End are nanoseconds since the benchmark's
// epoch. Calls and Allocs are set on replay spans, which time a batch:
// Calls is the number of calls inside, Allocs the heap allocations per
// call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Calls  int     `json:"calls,omitempty"`
	Allocs float64 `json:"allocs_per_call,omitempty"`
}

// maxOpSpans caps the per-operation spans a traced window keeps: enough
// for every percentile the report quotes, small enough to write out.
const maxOpSpans = 20000

// add records a span and returns its ID (0 when the recorder is nil or
// full, which callers may pass on as a parent without harm).
func (r *spanRecorder) add(parent int, name string, start, end time.Time) int {
	return r.addBatch(parent, name, start, end, 0, 0)
}

// addBatch records a replay span: calls calls timed as one interval.
func (r *spanRecorder) addBatch(parent int, name string, start, end time.Time, calls int, allocs float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxOpSpans {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Start: sinceEpoch(start), End: sinceEpoch(end),
		Calls: calls, Allocs: allocs,
	})
	return id
}

// finish moves a recorded span's end, for a parent opened before its
// children ran.
func (r *spanRecorder) finish(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = sinceEpoch(end)
	r.mu.Unlock()
}

// capture keeps the first frames a witness session received, decoded,
// for the layer probes to replay: the frames the workload actually put
// on the wire, not synthetic ones.
type capture struct {
	mu     sync.Mutex
	events []protocol.Message
}

// maxCaptured bounds the replay set; a few hundred frames cover every
// frame shape a workload produces.
const maxCaptured = 256

func (c *capture) offer(msg protocol.Message) {
	if c == nil || msg.CSeq == 0 {
		return
	}
	c.mu.Lock()
	if len(c.events) < maxCaptured {
		c.events = append(c.events, msg)
	}
	c.mu.Unlock()
}

// payload draws a printable line of lo..hi characters from the seeded
// generator — chat text and stroke data alike.
func payload(rng *rand.Rand, lo, hi int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, lo+rng.Intn(hi-lo+1))
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// jitteredSchedule returns the send offsets of an open loop at rate
// sends a second over total: send i falls at a seeded uniform point of
// the i-th interval of length 1/rate. Every second offers exactly rate
// sends with gaps anywhere between none and two intervals — irregular,
// but evenly spread against any periodic timer in the system under
// test. A Poisson schedule was tried first: its random clumping against
// the server's 200 ms coalescing tick alone moved the lecture's median
// by ±5 % between seeds, which is the schedule's noise, not the
// system's.
func jitteredSchedule(rng *rand.Rand, rate int, total time.Duration) []time.Duration {
	step := time.Second / time.Duration(rate)
	due := make([]time.Duration, int(total/step))
	for i := range due {
		due[i] = time.Duration(i)*step + time.Duration(rng.Int63n(int64(step)))
	}
	return due
}

// rearm resets a timer that may or may not have fired to a full wait
// limit.
func rearm(timer *time.Timer) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(waitLimit)
}

// waitUntil polls cond until it holds or the wait limit passes.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

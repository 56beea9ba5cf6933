package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/protocol"
)

// Lecture sizes: one chair, a fan-out 16 wide, 50 lines a second.
const (
	lectureListeners = 16
	lectureRate      = 50 // lines per second, open loop
)

// lecture is the open-loop workload: a chair holding an Equal Control
// floor posts chat lines on a seeded schedule whether or not the system
// keeps up, and every line is timed from when it was due to
// when each listener has applied it.
type lecture struct {
	seed      int64
	group     string
	chair     *client.Client
	listeners []*lectureTap
	rec       *spanRecorder
	cap       *capture
	sent      []string // what the chair posted, in board order
}

// lectureTap is one listener session: it times each line as its board
// applies it.
type lectureTap struct {
	c     *client.Client
	group string
	sink  sink

	mu      sync.Mutex
	t0      time.Time
	due     []time.Duration
	applied int64       // highest board sequence timed so far
	at      []time.Time // witness only: when each line was applied
	events  int64
	cap     *capture
}

func (l *lectureTap) onEvent(msg protocol.Message) {
	if msg.Type != protocol.TChatEvent || msg.Group != l.group {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cap.offer(msg)
	// The tap runs after the client applied the event, so the board's
	// sequence says which lines just arrived — ops inside a coalesced
	// burst (SequencedBody.More) each count, without decoding it twice.
	seq := l.c.Board(l.group).Seq()
	l.events++
	for ; l.applied < seq && int(l.applied) < len(l.due); l.applied++ {
		// An open loop's line belongs to the window it was due in.
		dueAt := l.t0.Add(l.due[l.applied])
		l.sink.add(dueAt, now.Sub(dueAt))
		if l.at != nil {
			l.at[l.applied] = now
		}
	}
}

func setupLecture(d *deployment, cfg runConfig, rec *spanRecorder) (scenario, error) {
	l := &lecture{seed: cfg.seed, group: d.groupOwnedBy("lecture", 1), rec: rec}
	if cfg.traced {
		l.cap = &capture{}
	}
	var err error
	if l.chair, err = d.dial("chair", "chair", cfg.traced, nil); err != nil {
		return nil, err
	}
	if err := d.join(l.chair, l.group); err != nil {
		return nil, err
	}
	for i := 0; i < lectureListeners; i++ {
		tap := &lectureTap{group: l.group}
		if i == 0 {
			tap.cap = l.cap
		}
		c, err := d.dial(fmt.Sprintf("listener%d", i), "participant", cfg.traced, tap.onEvent)
		if err != nil {
			return nil, err
		}
		tap.mu.Lock()
		tap.c = c
		tap.mu.Unlock()
		if err := d.join(c, l.group); err != nil {
			return nil, err
		}
		l.listeners = append(l.listeners, tap)
	}
	dec, err := l.chair.RequestFloor(l.group, floor.EqualControl, "")
	if err != nil || !dec.Granted {
		return nil, fmt.Errorf("lecture: chair not granted the floor: %+v %v", dec, err)
	}
	return l, nil
}

func (l *lecture) probe() probeTarget {
	clients := make([]*client.Client, len(l.listeners))
	for i, tap := range l.listeners {
		clients[i] = tap.c
	}
	return probeTarget{node: 1, group: l.group, sessions: clients, capture: l.cap,
		request: protocol.MustNew(protocol.TChat, protocol.ChatBody{Text: l.sent[0]})}
}

func (l *lecture) run(warmup, length time.Duration, t *tally) outcome {
	rng := rand.New(rand.NewSource(l.seed))
	total := warmup + length
	due := jitteredSchedule(rng, lectureRate, total)
	n := len(due)
	l.sent = make([]string, n)
	for i := range l.sent {
		l.sent[i] = fmt.Sprintf("%06d %s", i, payload(rng, 40, 120))
	}

	t0 := time.Now().Add(10 * time.Millisecond)
	win := window{start: t0.Add(warmup), end: t0.Add(total)}
	for i, tap := range l.listeners {
		tap.mu.Lock()
		tap.t0, tap.due = t0, due
		if i == 0 {
			tap.at = make([]time.Time, n)
		}
		tap.mu.Unlock()
		tap.sink.arm(win)
	}

	// One driver goroutine — this one — fires every line at its due
	// time; a line that finds the previous request still in flight goes
	// out late, and both its lag and its latency say so.
	sentAt := make([]time.Time, n)
	acked := make([]time.Time, n)
	var lag []float64
	for i, line := range l.sent {
		at := t0.Add(due[i])
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		sentAt[i] = time.Now()
		t.op("chat", l.chair.Chat(l.group, line))
		acked[i] = time.Now()
		if due[i] >= warmup {
			lag = append(lag, float64(sentAt[i].Sub(at))/float64(time.Millisecond))
		}
	}

	// Drain: every listener must end up with every line.
	want := int64(n)
	t.attempt(want * lectureListeners)
	for i, tap := range l.listeners {
		tap := tap
		if !waitUntil(func() bool { return tap.c.Board(l.group).Seq() >= want }) {
			t.fail(want-tap.c.Board(l.group).Seq(), "listener%d: lines missing at run end", i)
		}
	}

	out := outcome{layer: map[string]float64{}}
	sinks := make([]*sink, len(l.listeners))
	for i, tap := range l.listeners {
		sinks[i] = &tap.sink
	}
	out.lat = merged(win, sinks...)
	ops := 0
	for _, part := range out.lat {
		ops += len(part)
	}

	// The open loop's throughput is what was delivered over the time it
	// took to deliver it: the offered rate is fixed by the schedule, so
	// the figure falls only when the system falls behind.
	witness := l.listeners[0]
	witness.mu.Lock()
	var last time.Time
	var hold []float64
	for i, at := range witness.at {
		if due[i] < warmup || at.IsZero() {
			continue
		}
		if at.After(last) {
			last = at
		}
		// server.hold_ms: from the ack reaching the chair to the logged
		// event reaching the witness — the time the line sat in the
		// server's coalescing batch. A line flushed on the leading edge
		// reaches the witness before its ack returns and held for 0.
		h := at.Sub(acked[i])
		if h < 0 {
			h = 0
		}
		hold = append(hold, float64(h)/float64(time.Millisecond))
		op := l.rec.add(0, "lecture.line", t0.Add(due[i]), at)
		l.rec.add(op, "client.Chat", sentAt[i], acked[i])
		l.rec.add(op, "server.hold", acked[i], acked[i].Add(h))
	}
	out.allEvents, out.allOps = witness.events, int64(n)*lectureListeners
	witness.mu.Unlock()
	out.delivered = float64(ops) / last.Sub(win.start).Seconds()
	out.layer["server.hold_ms"] = describe(hold).P50
	out.layer["gen_lag_p99_ms"] = describe(lag).P99
	return out
}

func (l *lecture) check() []string {
	var v []string
	for i, tap := range l.listeners {
		v = append(v, checkBoard(fmt.Sprintf("listener%d", i), tap.c.Board(l.group), l.sent)...)
	}
	return v
}

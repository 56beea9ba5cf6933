package main

import (
	"fmt"
	"sync"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/protocol"
)

// Floor-churn sizes: two groups on different owner nodes, one closed
// loop each, sixteen members a group.
const (
	churnGroups  = 2
	churnMembers = 16
)

// churn is the closed-loop floor workload: in each group a driver walks
// a hand-off ring. The next member requests the held floor and is
// queued, the holder releases, and the hand-off is timed from the
// release being sent to the next member's session seeing the event that
// names it holder.
type churn struct {
	groups [churnGroups]string
	rings  [churnGroups][]*floorMember
	rec    *spanRecorder
	cap    *capture
}

// floorMember is one session that follows a group's floor: it checks
// exclusivity over everything it sees and wakes a waiting driver when
// an event names it holder.
type floorMember struct {
	c     *client.Client
	group string

	mu      sync.Mutex
	id      string
	chk     floorChecker
	cap     *capture
	promote chan time.Time // capacity 1: the latest hand-off to this member
}

func newFloorMember(group string, dense bool) *floorMember {
	return &floorMember{group: group, chk: floorChecker{group: group, dense: dense}, promote: make(chan time.Time, 1)}
}

func (m *floorMember) onEvent(msg protocol.Message) {
	if msg.Type != protocol.TFloorEvent || msg.Group != m.group {
		return
	}
	now := time.Now()
	var ev protocol.FloorEventBody
	if msg.Into(&ev) != nil {
		return
	}
	m.mu.Lock()
	m.cap.offer(msg)
	m.chk.observe(msg.CSeq, ev)
	mine := m.id != "" && ev.Holder == m.id && (ev.Event == "released" || ev.Event == "granted")
	m.mu.Unlock()
	if mine {
		select {
		case m.promote <- now:
		default:
		}
	}
}

// bind records the session once the dial that installed the tap
// returns.
func (m *floorMember) bind(c *client.Client) {
	m.mu.Lock()
	m.c, m.id = c, c.MemberID()
	m.mu.Unlock()
}

func (m *floorMember) lastCSeq() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.chk.lastCSeq
}

func setupChurn(d *deployment, cfg runConfig, rec *spanRecorder) (scenario, error) {
	ch := &churn{rec: rec}
	if cfg.traced {
		ch.cap = &capture{}
	}
	for g := range ch.groups {
		ch.groups[g] = d.groupOwnedBy(fmt.Sprintf("churn%d-", g), g)
		for i := 0; i < churnMembers; i++ {
			m := newFloorMember(ch.groups[g], true)
			if g == 0 && i == 0 {
				m.cap = ch.cap
			}
			c, err := d.dial(fmt.Sprintf("g%dm%d", g, i), "participant", cfg.traced, m.onEvent)
			if err != nil {
				return nil, err
			}
			m.bind(c)
			if err := d.join(c, ch.groups[g]); err != nil {
				return nil, err
			}
			ch.rings[g] = append(ch.rings[g], m)
		}
		dec, err := ch.rings[g][0].c.RequestFloor(ch.groups[g], floor.EqualControl, "")
		if err != nil || !dec.Granted {
			return nil, fmt.Errorf("floor-churn: first holder not granted: %+v %v", dec, err)
		}
	}
	return ch, nil
}

func (ch *churn) probe() probeTarget {
	sessions := make([]*client.Client, churnMembers)
	for i, m := range ch.rings[0] {
		sessions[i] = m.c
	}
	req := protocol.MustNew(protocol.TFloorRequest, protocol.FloorRequestBody{Mode: floor.EqualControl.String()})
	req.Group = ch.groups[0]
	return probeTarget{node: 0, group: ch.groups[0], sessions: sessions, capture: ch.cap, request: req}
}

func (ch *churn) run(warmup, length time.Duration, t *tally) outcome {
	start := time.Now()
	win := window{start: start.Add(warmup), end: start.Add(warmup + length)}
	var sinks [churnGroups]sink
	var wg sync.WaitGroup
	for g := range ch.groups {
		sinks[g].arm(win)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ch.drive(g, win, &sinks[g], t)
		}(g)
	}
	wg.Wait()

	// Drain: all sixteen members of a group receive every floor event.
	for g, ring := range ch.rings {
		head := int64(0)
		for _, m := range ring {
			if s := m.lastCSeq(); s > head {
				head = s
			}
		}
		t.attempt(head * churnMembers)
		for i, m := range ring {
			m := m
			if !waitUntil(func() bool { return m.lastCSeq() >= head }) {
				t.fail(head-m.lastCSeq(), "g%dm%d: floor events missing at run end", g, i)
			}
		}
	}

	out := outcome{layer: map[string]float64{}}
	out.lat = merged(win, &sinks[0], &sinks[1])
	out.rates = completionRates(win, out.lat)
	for _, ring := range ch.rings {
		// One member per group stands for what the group logged; a
		// hand-off is two events, the request's "queued" and the release.
		out.allEvents += ring[0].lastCSeq()
	}
	out.allOps = out.allEvents / 2
	return out
}

// drive walks one group's hand-off ring until the window ends.
func (ch *churn) drive(g int, win window, s *sink, t *tally) {
	group, ring := ch.groups[g], ch.rings[g]
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
	for holder := 0; time.Now().Before(win.end); holder = (holder + 1) % churnMembers {
		cur, next := ring[holder], ring[(holder+1)%churnMembers]
		r0 := time.Now()
		dec, err := next.c.RequestFloor(group, floor.EqualControl, "")
		r1 := time.Now()
		if err == nil && dec.Granted {
			err = fmt.Errorf("granted while %s holds", cur.id)
		}
		t.op("request", err)
		select {
		case <-next.promote: // a stale wake-up from an earlier lap
		default:
		}
		t0 := time.Now()
		t.op("release", cur.c.ReleaseFloor(group))
		t1 := time.Now()
		rearm(timer)
		t.attempt(1)
		select {
		case seen := <-next.promote:
			s.add(seen, seen.Sub(t0))
			if win.part(seen) >= 0 {
				op := ch.rec.add(0, "floor.cycle", r0, seen)
				ch.rec.add(op, "client.RequestFloor", r0, r1)
				hand := ch.rec.add(op, "floor.handoff", t0, seen)
				ch.rec.add(hand, "client.ReleaseFloor", t0, t1)
			}
		case <-timer.C:
			t.fail(1, "%s: hand-off to %s not seen within %v", group, next.id, waitLimit)
		}
	}
}

func (ch *churn) check() []string {
	var v []string
	for _, ring := range ch.rings {
		for _, m := range ring {
			m.mu.Lock()
			v = append(v, m.chk.violations...)
			m.mu.Unlock()
		}
	}
	return v
}

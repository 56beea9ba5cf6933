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

// Rejoin-storm sizes: one closed loop per group, each with eight
// members that take turns dropping, a poster that writes the gap, and a
// witness that never drops.
const (
	rejoinGroups  = 2
	rejoinMembers = 8
	rejoinPreload = 400 // board lines in each group before the run
	rejoinPairs   = 16  // request/release pairs logged while a member is away
)

// rejoin is the closed-loop resume workload: reads beside writes. Per
// cycle a member drops, its group's poster logs a 32-event gap, and the
// member's reconnect is timed until its board and floor state match a
// witness that saw everything.
type rejoin struct {
	groups [rejoinGroups]*rejoinGroup
	rec    *spanRecorder
	cap    *capture
}

type rejoinGroup struct {
	id      string
	members []*resumer
	poster  *client.Client
	witness *floorMember
	lines   []string // the preloaded board
}

// resumer is a member that drops and resumes. Its tap counts what the
// catch-up delivered and wakes the driver on every event.
type resumer struct {
	c     *client.Client
	group string

	mu        sync.Mutex
	floorCSeq int64
	snapshots int64
	events    int64
	wake      chan struct{} // capacity 1
}

func (r *resumer) onEvent(msg protocol.Message) {
	if msg.Group != r.group {
		return
	}
	r.mu.Lock()
	switch {
	case msg.Type == protocol.TSnapshot:
		r.snapshots++
	case msg.CSeq > 0:
		r.events++
		if msg.Class == protocol.ClassFloor && msg.CSeq > r.floorCSeq {
			r.floorCSeq = msg.CSeq
		}
	}
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func setupRejoin(d *deployment, cfg runConfig, rec *spanRecorder) (scenario, error) {
	rj := &rejoin{rec: rec}
	if cfg.traced {
		rj.cap = &capture{}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var wg sync.WaitGroup
	errs := make([]error, rejoinGroups)
	for g := range rj.groups {
		grp := &rejoinGroup{id: d.groupOwnedBy(fmt.Sprintf("rejoin%d-", g), g)}
		rj.groups[g] = grp
		grp.witness = newFloorMember(grp.id, true)
		if g == 0 {
			grp.witness.cap = rj.cap
		}
		wc, err := d.dial(fmt.Sprintf("g%dwitness", g), "participant", cfg.traced, grp.witness.onEvent)
		if err != nil {
			return nil, err
		}
		grp.witness.bind(wc)
		if grp.poster, err = d.dial(fmt.Sprintf("g%dposter", g), "participant", cfg.traced, nil); err != nil {
			return nil, err
		}
		for i := 0; i < rejoinMembers; i++ {
			r := &resumer{group: grp.id, wake: make(chan struct{}, 1)}
			c, err := d.dial(fmt.Sprintf("g%dm%d", g, i), "participant", cfg.traced, r.onEvent)
			if err != nil {
				return nil, err
			}
			r.mu.Lock()
			r.c = c
			r.mu.Unlock()
			grp.members = append(grp.members, r)
		}
		for _, c := range append([]*client.Client{wc, grp.poster}, clientsOf(grp.members)...) {
			if err := d.join(c, grp.id); err != nil {
				return nil, err
			}
		}
		grp.lines = make([]string, rejoinPreload)
		for i := range grp.lines {
			grp.lines[i] = fmt.Sprintf("%04d %s", i, payload(rng, 40, 120))
		}
		// Preload while the group is still free-access; the two groups
		// load side by side.
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, line := range grp.lines {
				if err := grp.poster.Chat(grp.id, line); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rejoin-storm: preload: %w", err)
		}
	}
	for _, grp := range rj.groups {
		for _, c := range append([]*client.Client{grp.witness.c}, clientsOf(grp.members)...) {
			c := c
			if !waitUntil(func() bool { return c.Board(grp.id).Seq() >= rejoinPreload }) {
				return nil, fmt.Errorf("rejoin-storm: preload not delivered to %s", c.MemberID())
			}
		}
	}
	return rj, nil
}

func clientsOf(members []*resumer) []*client.Client {
	out := make([]*client.Client, len(members))
	for i, r := range members {
		out[i] = r.c
	}
	return out
}

func (rj *rejoin) probe() probeTarget {
	grp := rj.groups[0]
	req := protocol.MustNew(protocol.TBackfill, protocol.BackfillBody{
		Group: grp.id, Afters: map[string]int64{protocol.ClassFloor: 1, protocol.ClassBoard: 1}, BoardSeq: rejoinPreload,
	})
	return probeTarget{node: 0, group: grp.id, sessions: append([]*client.Client{grp.witness.c}, clientsOf(grp.members)...),
		capture: rj.cap, request: req}
}

func (rj *rejoin) run(warmup, length time.Duration, t *tally) outcome {
	start := time.Now()
	win := window{start: start.Add(warmup), end: start.Add(warmup + length)}
	var sinks [rejoinGroups]sink
	var stats [rejoinGroups]resumeStats
	var wg sync.WaitGroup
	for g := range rj.groups {
		sinks[g].arm(win)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stats[g] = rj.drive(rj.groups[g], win, &sinks[g], t)
		}(g)
	}
	wg.Wait()

	// Drain: members that stayed connected through the last cycle must
	// have caught up with the witness before the outputs are checked.
	for _, grp := range rj.groups {
		head := grp.witness.lastCSeq()
		for _, m := range grp.members {
			m := m
			t.attempt(1)
			if !waitUntil(func() bool { m.mu.Lock(); defer m.mu.Unlock(); return m.floorCSeq >= head }) {
				t.fail(1, "%s: %s behind the witness at run end", grp.id, m.c.MemberID())
			}
		}
	}

	out := outcome{layer: map[string]float64{}}
	out.lat = merged(win, &sinks[0], &sinks[1])
	out.rates = completionRates(win, out.lat)
	var all resumeStats
	for g, grp := range rj.groups {
		out.allEvents += grp.witness.lastCSeq()
		all.cycles += stats[g].cycles
		all.resumes += stats[g].resumes
		all.backfilled += stats[g].backfilled
		all.snapshots += stats[g].snapshots
	}
	out.allOps = all.cycles
	if all.resumes > 0 {
		out.layer["client.backfilled_events_per_resume"] = float64(all.backfilled) / float64(all.resumes)
		out.layer["client.snapshots_per_resume"] = float64(all.snapshots) / float64(all.resumes)
	}
	return out
}

// resumeStats is what one group's driver counted: cycles over the whole
// run; resumes, and the logged events and snapshots their catch-ups
// delivered, inside the window.
type resumeStats struct {
	cycles, resumes, backfilled, snapshots int64
}

// drive runs one group's drop → gap → resume cycles until the window
// ends, and reports what the catch-ups inside the window delivered.
func (rj *rejoin) drive(grp *rejoinGroup, win window, s *sink, t *tally) (st resumeStats) {
	timer := time.NewTimer(waitLimit)
	defer timer.Stop()
cycle:
	for k := 0; time.Now().Before(win.end); k++ {
		st.cycles++
		m := grp.members[k%rejoinMembers]
		m.c.Drop()
		for i := 0; i < rejoinPairs; i++ {
			dec, err := grp.poster.RequestFloor(grp.id, floor.EqualControl, "")
			if err == nil && !dec.Granted {
				err = fmt.Errorf("poster not granted: %s", dec.Reason)
			}
			t.op("request", err)
			t.op("release", grp.poster.ReleaseFloor(grp.id))
		}
		// The gap must be whole at the witness before the clock starts,
		// so that no coalescing tick falls inside the timed interval.
		target := grp.witness.lastCSeq()
		t.attempt(1)
		if !waitUntil(func() bool { target = grp.witness.lastCSeq(); return target >= int64(k+1)*2*rejoinPairs }) {
			t.fail(1, "%s: witness saw %d floor events, want %d", grp.id, target, int64(k+1)*2*rejoinPairs)
		}
		board, holder := grp.witness.c.Board(grp.id).Seq(), grp.witness.c.Holder(grp.id)
		m.mu.Lock()
		ev0, snap0 := m.events, m.snapshots
		m.mu.Unlock()
		converged := func() bool {
			m.mu.Lock()
			caught := m.floorCSeq >= target || m.snapshots > snap0
			m.mu.Unlock()
			return caught && m.c.Board(grp.id).Seq() == board && m.c.Holder(grp.id) == holder
		}

		t0 := time.Now()
		err := m.c.Reconnect()
		t1 := time.Now()
		if !t.op("reconnect", err) {
			return st
		}
		rearm(timer)
		t.attempt(1)
		for !converged() {
			select {
			case <-m.wake:
			case <-timer.C:
				t.fail(1, "%s: %s not converged on the witness within %v", grp.id, m.c.MemberID(), waitLimit)
				continue cycle
			}
		}
		seen := time.Now()
		s.add(seen, seen.Sub(t0))
		if win.part(seen) >= 0 {
			m.mu.Lock()
			st.backfilled += m.events - ev0
			st.snapshots += m.snapshots - snap0
			m.mu.Unlock()
			st.resumes++
			op := rj.rec.add(0, "resume", t0, seen)
			rj.rec.add(op, "client.Reconnect", t0, t1)
			rj.rec.add(op, "client.catch-up", t1, seen)
		}
	}
	return st
}

// check verifies the witnesses saw an exclusive floor and a whole
// board, and that every member that resumed ended on its witness's
// board and holder.
func (rj *rejoin) check() []string {
	var v []string
	for _, grp := range rj.groups {
		w := grp.witness
		w.mu.Lock()
		v = append(v, w.chk.violations...)
		w.mu.Unlock()
		v = append(v, checkBoard(w.id, w.c.Board(grp.id), grp.lines)...)
		for _, m := range grp.members {
			if got, want := m.c.Board(grp.id).Seq(), w.c.Board(grp.id).Seq(); got != want {
				v = append(v, fmt.Sprintf("%s: board seq %d, witness %d", m.c.MemberID(), got, want))
			}
			if got, want := m.c.Holder(grp.id), w.c.Holder(grp.id); got != want {
				v = append(v, fmt.Sprintf("%s: holder %q, witness %q", m.c.MemberID(), got, want))
			}
		}
	}
	return v
}

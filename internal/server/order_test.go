package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/floor"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// orderTap records what one session is sent, in arrival order: each
// logged floor event as "floor:<event>" and each reply as "reply".
type orderTap struct {
	mu   sync.Mutex
	seen []string
}

func (o *orderTap) observe(msg protocol.Message) {
	entry := ""
	switch {
	case msg.Type == protocol.TAck || msg.Type == protocol.TErr:
		entry = "reply"
	case msg.Type == protocol.TFloorEvent && msg.CSeq != 0:
		var body protocol.FloorEventBody
		if msg.Into(&body) != nil {
			return
		}
		entry = "floor:" + body.Event
	default:
		return
	}
	o.mu.Lock()
	o.seen = append(o.seen, entry)
	o.mu.Unlock()
}

func (o *orderTap) since(n int) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.seen[n:]...)
}

func (o *orderTap) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.seen)
}

func (o *orderTap) floorEvents() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := int64(0)
	for _, e := range o.seen {
		if strings.HasPrefix(e, "floor:") {
			n++
		}
	}
	return n
}

// TestFloorEventPrecedesAck drives every floor transition through the
// server — grant, queue, release with promotion, pass, mode switch,
// approval, and reap eviction — and checks the one order they share:
// the transition runs inside its log append, so the acting session has
// the floor event before its ack. A repeat request (the holder or a
// queued member asking again, a same-mode switch, a second approval)
// is acked, and a refused one answered, and both leave the group log's
// head where it was.
func TestFloorEventPrecedesAck(t *testing.T) {
	n := netsim.New(23)
	sim := clock.NewSim(time.Unix(6000, 0))
	srv, err := New(Config{Network: n, Addr: "srv:1", Clock: sim, ProbeInterval: time.Hour, SessionTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)

	const g = "hall"
	taps := map[string]*orderTap{}
	members := map[string]*client.Client{}
	for _, who := range []struct {
		name, role string
		priority   int
	}{{"chair", "chair", 5}, {"ann", "participant", 2}, {"ben", "participant", 2}} {
		tap := &orderTap{}
		c, err := client.Dial(client.Config{
			Network: n.From(who.name + "host"), Addr: "srv:1", Name: who.name,
			Role: who.role, Priority: who.priority, Timeout: 2 * time.Second, OnEvent: tap.observe,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who.name, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		// The tap sees a reply only after Join has returned on it, so
		// wait for the join's reply, or it can land inside a step.
		waitFor(t, who.name+"'s join reply to reach the tap", func() bool { return tap.len() == 1 })
		taps[who.name], members[who.name] = tap, c
	}
	id := func(name string) string { return members[name].MemberID() }
	request := func(who string, mode floor.Mode, granted bool, slot int) func() error {
		return func() error {
			dec, err := members[who].RequestFloor(g, mode, "")
			if err == nil && (dec.Granted != granted || dec.QueuePosition != slot) {
				err = fmt.Errorf("decision %+v, want granted=%v slot=%d", dec, granted, slot)
			}
			return err
		}
	}
	approve := func(who string, granted bool) func() error {
		return func() error {
			dec, err := members["chair"].ApproveFloor(g, id(who))
			if err == nil && dec.Granted != granted {
				err = fmt.Errorf("decision %+v, want granted=%v", dec, granted)
			}
			return err
		}
	}
	switchTo := func(mode floor.Mode) func() error {
		return func() error { return members["chair"].SwitchMode(g, mode, false) }
	}
	steps := []struct {
		name  string
		actor string // the session whose request it is; "" for the reap
		event string // the floor event it logs; "" for a repeat or a refusal
		run   func() error
	}{
		{"grant", "ann", "granted", request("ann", floor.EqualControl, true, 0)},
		{"the holder asks again", "ann", "", request("ann", floor.EqualControl, true, 0)},
		{"queue", "ben", "queued", request("ben", floor.EqualControl, false, 1)},
		{"a queued member asks again", "ben", "", request("ben", floor.EqualControl, false, 1)},
		{"release with promotion", "ann", "released", func() error { return members["ann"].ReleaseFloor(g) }},
		{"pass", "ben", "passed", func() error { return members["ben"].PassToken(g, id("ann")) }},
		{"mode switch", "chair", "mode_switch", switchTo(floor.ModeratedQueue)},
		{"a same-mode switch", "chair", "", switchTo(floor.ModeratedQueue)},
		{"queue for approval", "ann", "queued", request("ann", floor.ModeratedQueue, false, 1)},
		{"approval of a free floor grants", "chair", "granted", approve("ann", true)},
		{"a release by a non-holder is refused", "chair", "", func() error {
			if err := members["chair"].ReleaseFloor(g); err == nil {
				return fmt.Errorf("the chair released a floor ann holds")
			}
			return nil
		}},
		{"queue behind the holder", "ben", "queued", request("ben", floor.ModeratedQueue, false, 1)},
		{"approval", "chair", "approved", approve("ben", false)},
		{"a second approval", "chair", "", approve("ben", false)},
		{"reap eviction of the holder", "", "released", func() error {
			// Everyone but ann speaks a minute later; ann is past the TTL.
			sim.Advance(time.Minute)
			for _, name := range []string{"chair", "ben"} {
				if _, err := members[name].SyncClock(); err != nil {
					return err
				}
			}
			if reaped := srv.Reap(sim.Now()); !slices.Equal(reaped, []string{id("ann")}) {
				return fmt.Errorf("reaped %v, want only ann", reaped)
			}
			return nil
		}},
	}
	for _, step := range steps {
		// Every session first takes every floor event logged so far, so
		// what the step's watcher receives next is the step's own.
		floorHead := srv.logs.Get(g).ClassHeads()[protocol.ClassFloor]
		for name, tap := range taps {
			waitFor(t, step.name+": "+name+" to catch up", func() bool { return tap.floorEvents() == floorHead })
		}
		head := srv.logs.Get(g).Head()
		watch := step.actor
		if watch == "" {
			watch = "chair"
		}
		tap := taps[watch]
		from := tap.len()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		want := []string{"reply"}
		switch {
		case step.actor == "":
			want = []string{"floor:" + step.event}
		case step.event != "":
			want = []string{"floor:" + step.event, "reply"}
		}
		waitFor(t, step.name+": "+watch+" to receive "+strings.Join(want, ", "), func() bool { return len(tap.since(from)) >= len(want) })
		if got := tap.since(from); !slices.Equal(got, want) {
			t.Errorf("%s: %s received %v, want %v", step.name, watch, got, want)
		}
		logged := int64(0)
		if step.event != "" {
			logged = 1
		}
		if got := srv.logs.Get(g).Head() - head; got != logged {
			t.Errorf("%s: the log head moved by %d, want %d", step.name, got, logged)
		}
	}
	if n := srv.logAppendErrs.Load(); n != 0 {
		t.Errorf("%d appends counted as failed; refused transitions and repeats must not count", n)
	}
}

package server

import (
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/protocol"
)

// tapDial dials a client with an OnEvent tap and an optional event-class
// mask, against the given lab.
func tapDial(t *testing.T, l *lab, name string, classes []string) (*client.Client, *eventTap) {
	t.Helper()
	tap := newEventTap()
	c, err := client.Dial(client.Config{
		Network:      l.net,
		Addr:         "server:1",
		Name:         name,
		Role:         "participant",
		Priority:     2,
		Timeout:      2 * time.Second,
		EventClasses: classes,
		OnEvent:      tap.observe,
	})
	if err != nil {
		t.Fatalf("Dial(%s): %v", name, err)
	}
	t.Cleanup(c.Close)
	return c, tap
}

// TestClassMaskFiltersServerSide is the filtering acceptance test: a
// member whose event-class mask excludes floor events must have zero
// floor-class bytes enqueued to its session under floor churn — the
// filter runs server-side, counted per session — while classes it does
// subscribe to keep flowing, their per-class sequencing untroubled by
// the holes the filtered class would otherwise leave.
func TestClassMaskFiltersServerSide(t *testing.T) {
	l := newLab(t)
	quiet, tap := tapDial(t, l, "quiet", []string{protocol.ClassBoard})
	noisy := l.dial("noisy", "participant", 2)
	for _, c := range []*client.Client{quiet, noisy} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}

	// Floor churn: every cycle logs floor-class events to the group.
	for i := 0; i < 10; i++ {
		if _, err := noisy.RequestFloor("class", floor.EqualControl, ""); err != nil {
			t.Fatal(err)
		}
		if err := noisy.ReleaseFloor("class"); err != nil {
			t.Fatal(err)
		}
	}
	// A board line after the churn is the ordering fence: once it
	// arrives, every floor event that was going to reach the quiet
	// member already would have. (The sender holds the floor for the
	// line — Equal Control gates the message window on it.)
	if _, err := noisy.RequestFloor("class", floor.EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	if err := noisy.Chat("class", "fence"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "board event through the mask", func() bool {
		return quiet.Board("class").Seq() == 1
	})

	if got := tap.typeCount(protocol.TFloorEvent); got != 0 {
		t.Errorf("masked member received %d floor events, want 0", got)
	}
	stats := l.srv.SessionStats()[quiet.MemberID()]
	if stats.Filtered == 0 {
		t.Error("no events counted as filtered: the mask did not run server-side")
	}
	if stats.Drops != 0 {
		t.Errorf("filtered events must not count as drops (got %d)", stats.Drops)
	}
	// The noisy member, unmasked, saw the same churn as floor events.
	waitFor(t, "unmasked member sees floor events", func() bool {
		return noisy.Holder("class") == noisy.MemberID()
	})
}

// TestQueueSlotsArePrivate: queue positions are per-recipient. Each
// queued member's copy of a floor event carries their own slot;
// everyone else's copy carries only the queue length.
func TestQueueSlotsArePrivate(t *testing.T) {
	l := newLab(t)
	holder := l.dial("holder", "participant", 2)
	queued, queuedTap := tapDial(t, l, "queued", nil)
	bystander, tap := tapDial(t, l, "bystander", nil)
	for _, c := range []*client.Client{holder, queued, bystander} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}
	if dec, err := holder.RequestFloor("class", floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("grant: %+v %v", dec, err)
	}
	if dec, err := queued.RequestFloor("class", floor.EqualControl, ""); err != nil || dec.QueuePosition != 1 {
		t.Fatalf("queue: %+v %v", dec, err)
	}

	// The queued member learns its own slot from the personalized push.
	waitFor(t, "queued member's own slot", func() bool {
		return queued.QueuePosition("class") == 1
	})
	sawOwnSlot := false
	for _, ev := range queuedTap.floorEvents() {
		if ev.Member == queued.MemberID() && ev.QueuePosition == 1 {
			sawOwnSlot = true
		}
	}
	if !sawOwnSlot {
		t.Error("queued member never received its own queue position")
	}

	// The bystander hears that queueing happened — member name, queue
	// length — but never anyone's slot.
	waitFor(t, "bystander sees the queueing", func() bool {
		for _, ev := range tap.floorEvents() {
			if ev.Event == "queued" && ev.Member == queued.MemberID() {
				return true
			}
		}
		return false
	})
	for _, ev := range tap.floorEvents() {
		if ev.Member != bystander.MemberID() && ev.QueuePosition != 0 {
			t.Errorf("bystander received %s event for %q with queue position %d", ev.Event, ev.Member, ev.QueuePosition)
		}
	}

	// Snapshots are personalized the same way: a late joiner's snapshot
	// names the queue length, not the members in it.
	late, lateTap := tapDial(t, l, "late", nil)
	if err := late.Join("class"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "late joiner snapshot", func() bool {
		return lateTap.typeCount(protocol.TSnapshot) > 0
	})
	for _, snap := range lateTap.snapshots() {
		if snap.QueuePos != 0 {
			t.Errorf("late joiner snapshot carries a queue slot %d", snap.QueuePos)
		}
		if snap.Mode != "" && snap.QueueLen != 1 {
			t.Errorf("late joiner snapshot QueueLen = %d, want 1", snap.QueueLen)
		}
	}
}

// TestLightsDigestQuietServer is the probe-tick hygiene regression
// test: once every session has accepted a lights push and nothing
// changes — no light transitions, no log head movement, no new drops —
// the probe tick must stop sending (and re-encoding) lights digests
// entirely.
func TestLightsDigestQuietServer(t *testing.T) {
	l := newLab(t)
	a, tapA := tapDial(t, l, "a", nil)
	b, tapB := tapDial(t, l, "b", nil)
	for _, c := range []*client.Client{a, b} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "first lights push", func() bool {
		return tapA.typeCount(protocol.TLights) > 0 && tapB.typeCount(protocol.TLights) > 0
	})
	// Let the join-time transitions drain, then measure a quiet window
	// spanning many probe ticks (interval 20ms).
	time.Sleep(100 * time.Millisecond)
	beforeA, beforeB := tapA.typeCount(protocol.TLights), tapB.typeCount(protocol.TLights)
	time.Sleep(300 * time.Millisecond)
	if gotA, gotB := tapA.typeCount(protocol.TLights)-beforeA, tapB.typeCount(protocol.TLights)-beforeB; gotA != 0 || gotB != 0 {
		t.Errorf("quiet server still pushed lights digests: %d to a, %d to b", gotA, gotB)
	}
	// A state change wakes the push back up.
	if _, err := a.RequestFloor("class", floor.EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "digest resumes after head movement", func() bool {
		return tapB.typeCount(protocol.TLights) > beforeB
	})
}

// floorEvents and snapshots extend eventTap with typed views; guarded
// by the same mutex.
func (tap *eventTap) floorEvents() []protocol.FloorEventBody {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	out := make([]protocol.FloorEventBody, len(tap.floors))
	copy(out, tap.floors)
	return out
}

func (tap *eventTap) snapshots() []protocol.SnapshotBody {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	out := make([]protocol.SnapshotBody, len(tap.snaps))
	copy(out, tap.snaps)
	return out
}

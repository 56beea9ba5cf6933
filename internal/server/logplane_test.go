package server

import (
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// eventTap counts server messages a client receives, by type, and
// retains the floor-event and snapshot bodies for assertions.
type eventTap struct {
	mu     sync.Mutex
	types  map[protocol.Type]int
	events map[string]int // FloorEventBody.Event → count
	floors []protocol.FloorEventBody
	snaps  []protocol.SnapshotBody
}

func newEventTap() *eventTap {
	return &eventTap{types: make(map[protocol.Type]int), events: make(map[string]int)}
}

func (tap *eventTap) observe(msg protocol.Message) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.types[msg.Type]++
	switch msg.Type {
	case protocol.TFloorEvent:
		var body protocol.FloorEventBody
		if msg.Into(&body) == nil {
			tap.events[body.Event]++
			tap.floors = append(tap.floors, body)
		}
	case protocol.TSnapshot:
		var body protocol.SnapshotBody
		if msg.Into(&body) == nil {
			tap.snaps = append(tap.snaps, body)
		}
	}
}

func (tap *eventTap) typeCount(t protocol.Type) int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.types[t]
}

func (tap *eventTap) eventCount(e string) int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.events[e]
}

// TestStallPastRingSnapshotBackfill is the tentpole's acceptance test:
// a member stalled through more logged events than the ring retains
// must converge — floor, board, suspension-free state AND a pending
// invitation — through the log plane alone once the stall lifts. With
// the ring wrapped, that means exactly the TBackfill→TSnapshot path:
// the test asserts a snapshot arrived and that none of the deleted
// per-class repairs did (no "resync" floor events exist anymore).
func TestStallPastRingSnapshotBackfill(t *testing.T) {
	const logCap = 8
	n := netsim.New(21)
	srv, err := New(Config{
		Network:       n,
		Addr:          "server:1",
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  60 * time.Millisecond,
		SendQueueCap:  4,
		LogCap:        logCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)

	tap := newEventTap()
	slow, err := client.Dial(client.Config{
		Network: n.From("slowhost"), Addr: "server:1",
		Name: "slow", Role: "participant", Priority: 2,
		Timeout: 2 * time.Second,
		OnEvent: tap.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Close)
	writer, err := client.Dial(client.Config{
		Network: n.From("fasthost"), Addr: "server:1",
		Name: "writer", Role: "participant", Priority: 2,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(writer.Close)
	for _, c := range []*client.Client{writer, slow} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}

	// Joining already delivered one snapshot; only snapshots after this
	// point prove the backfill fallback fired.
	snapshotsBefore := tap.typeCount(protocol.TSnapshot)

	// Freeze the slow member's link, then push far more logged state
	// than the ring retains: board lines, a floor grant, and an
	// invitation into a breakout (the member-directed log).
	n.Stall("server", "slowhost", true)
	defer n.Stall("server", "slowhost", false)
	const lines = 3 * logCap
	for i := 0; i < lines; i++ {
		if err := writer.Chat("class", "line"); err != nil {
			t.Fatal(err)
		}
		// Flush each line into its own logged event: this test is about
		// wrapping the ring, not about the storm coalescing that would
		// otherwise compress the burst into a handful of events.
		srv.FlushBoardBatches()
	}
	if _, err := writer.RequestFloor("class", floor.EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	if err := writer.Join("breakout"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Invite("breakout", slow.MemberID()); err != nil {
		t.Fatal(err)
	}

	n.Stall("server", "slowhost", false)
	waitFor(t, "board convergence through snapshot", func() bool {
		return slow.Board("class").Seq() == int64(lines)
	})
	waitFor(t, "floor convergence through snapshot", func() bool {
		return slow.Holder("class") == writer.MemberID()
	})
	waitFor(t, "invitation backfill", func() bool {
		return len(slow.PendingInvites()) == 1
	})

	// Convergence came from the one repair path: a snapshot (the ring
	// wrapped, so a suffix replay was impossible) — and none of PR 2's
	// per-class resync pushes, which no longer exist.
	if tap.typeCount(protocol.TSnapshot) <= snapshotsBefore {
		t.Error("no post-stall TSnapshot received: convergence bypassed the wrapped-ring fallback")
	}
	if got := tap.eventCount("resync"); got != 0 {
		t.Errorf("%d per-class resync floor events received; the log plane should have replaced them", got)
	}
}

// TestReconnectDisplacesStaleSession covers token resume while the
// server still believes the old connection is alive (a netsim Drop is
// invisible to the server until probes time out): the reconnect must
// displace the stale session and the client must converge on state it
// missed while dead — without re-joining.
func TestReconnectDisplacesStaleSession(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	student := l.dial("Student", "participant", 2)
	for _, c := range []*client.Client{teacher, student} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}
	events := student.Subscribe(client.FloorEvents)

	if !student.Drop() {
		t.Fatal("netsim drop failed")
	}
	// While the student is dead: board history and a floor grant.
	if err := teacher.Chat("class", "missed line"); err != nil {
		t.Fatal(err)
	}
	if _, err := teacher.RequestFloor("class", floor.EqualControl, ""); err != nil {
		t.Fatal(err)
	}

	if err := student.Reconnect(); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	if student.MemberID() == "" {
		t.Fatal("no member identity after reconnect")
	}
	waitFor(t, "board resume", func() bool {
		return student.Board("class").Seq() == 1
	})
	waitFor(t, "floor resume", func() bool {
		return student.Holder("class") == teacher.MemberID()
	})
	// The pre-drop subscription is still live: it must deliver the
	// post-reconnect floor state (the snapshot's restatement or a later
	// live event), not be closed.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("subscription closed by reconnect")
			}
			if ev.Floor.Holder == teacher.MemberID() {
				return
			}
		case <-deadline:
			t.Fatal("no floor event crossed the reconnect")
		}
	}
}

// TestModeSwitchPinOverWire drives the chair-pinned policy end to end:
// the chair pins moderated-queue, a participant can neither TModeSwitch
// nor floor-request the group out of it, the mode_switch event reaches
// subscribers, and unpinning reopens mode entry.
func TestModeSwitchPinOverWire(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	student := l.dial("Student", "participant", 2)
	if err := teacher.Join("class"); err != nil { // first joiner chairs
		t.Fatal(err)
	}
	if err := student.Join("class"); err != nil {
		t.Fatal(err)
	}
	events := student.Subscribe(client.FloorEvents)

	if err := teacher.SwitchMode("class", floor.ModeratedQueue, true); err != nil {
		t.Fatalf("chair pin: %v", err)
	}
	if !l.srv.FloorController().Snapshot("class").Pinned {
		t.Fatal("pin not recorded")
	}
	// The switch is a logged broadcast.
	deadline := time.After(3 * time.Second)
	for switched := false; !switched; {
		select {
		case ev := <-events:
			switched = ev.Floor.Event == "mode_switch" && ev.Floor.Mode == floor.ModeratedQueue.String()
		case <-deadline:
			t.Fatal("mode_switch event never arrived")
		}
	}
	// Non-chairs bounce off the pin, both paths.
	if err := student.SwitchMode("class", floor.FreeAccess, false); err == nil {
		t.Error("participant switch on pinned group should be denied")
	}
	if _, err := student.RequestFloor("class", floor.FreeAccess, ""); err == nil {
		t.Error("participant mode entry on pinned group should be denied")
	}
	if got := l.srv.FloorController().ModeOf("class"); got != floor.ModeratedQueue {
		t.Fatalf("mode drifted to %v", got)
	}
	// Chair unpins; the student may move the group again.
	if err := teacher.SwitchMode("class", floor.FreeAccess, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "participant entry after unpin", func() bool {
		_, err := student.RequestFloor("class", floor.EqualControl, "")
		return err == nil
	})
}

// TestGroupNamesCannotShadowMemberLogs: the "~" keyspace is reserved
// for member event logs; joining such a group must be rejected.
func TestGroupNamesCannotShadowMemberLogs(t *testing.T) {
	l := newLab(t)
	c := l.dial("Sneak", "participant", 2)
	if err := c.Join("~victim#1"); err == nil {
		t.Fatal("'~' group name should be rejected")
	}
}

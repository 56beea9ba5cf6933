package floor

import (
	"errors"
	"testing"

	"dmps/internal/group"
)

func TestSwitchModeResetsFloorState(t *testing.T) {
	_, _, c := classroom(t)
	if _, err := c.Arbitrate("class", "alice", EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Arbitrate("class", "bob", EqualControl, ""); !errors.Is(err, ErrBusy) {
		t.Fatalf("bob should queue: %v", err)
	}
	mode, changed, err := c.SwitchMode("class", "teacher", FreeAccess, false)
	if err != nil || mode != FreeAccess || !changed {
		t.Fatalf("switch = (%v, %v, %v)", mode, changed, err)
	}
	if c.ModeOf("class") != FreeAccess {
		t.Errorf("mode = %v", c.ModeOf("class"))
	}
	if h := c.Holder("class"); h != "" {
		t.Errorf("holder survived the switch: %q", h)
	}
	if q := c.Queue("class"); len(q) != 0 {
		t.Errorf("queue survived the switch: %v", q)
	}
}

func TestSwitchModeSameModeIsNoOpOnState(t *testing.T) {
	_, _, c := classroom(t)
	if _, err := c.Arbitrate("class", "alice", EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	if _, changed, err := c.SwitchMode("class", "teacher", EqualControl, true); err != nil || changed {
		t.Fatalf("same-mode pin = (changed=%v, %v), want a pure pin update", changed, err)
	}
	if h := c.Holder("class"); h != "alice" {
		t.Errorf("same-mode switch cleared the holder: %q", h)
	}
	if !c.Snapshot("class").Pinned {
		t.Error("pin not recorded")
	}
}

func TestPinnedGroupGatesModeEntryBehindChair(t *testing.T) {
	_, _, c := classroom(t)
	if _, _, err := c.SwitchMode("class", "teacher", ModeratedQueue, true); err != nil {
		t.Fatal(err)
	}
	if !c.Snapshot("class").Pinned {
		t.Fatal("pin not set")
	}
	// A participant can neither switch explicitly…
	if _, _, err := c.SwitchMode("class", "alice", FreeAccess, false); !errors.Is(err, ErrNotChair) {
		t.Errorf("participant switch on pinned group: %v", err)
	}
	// …nor drag the group into another mode by requesting its floor.
	if _, err := c.Arbitrate("class", "alice", FreeAccess, ""); !errors.Is(err, ErrNotChair) {
		t.Errorf("participant mode entry on pinned group: %v", err)
	}
	if c.ModeOf("class") != ModeratedQueue {
		t.Errorf("mode drifted to %v", c.ModeOf("class"))
	}
	// Requests for the pinned mode itself still arbitrate normally.
	if _, err := c.Arbitrate("class", "alice", ModeratedQueue, ""); !errors.Is(err, ErrBusy) {
		t.Errorf("same-mode request: %v", err)
	}
	// Direct Contact runs concurrently and stays exempt from the pin.
	if dec, err := c.Arbitrate("class", "alice", DirectContact, "bob"); err != nil || !dec.Granted {
		t.Errorf("direct contact under pin: %+v %v", dec, err)
	}
	// The chair may switch; switching without pin also unpins.
	if mode, _, err := c.SwitchMode("class", "teacher", FreeAccess, false); err != nil || mode != FreeAccess {
		t.Fatalf("chair switch: (%v, %v)", mode, err)
	}
	if c.Snapshot("class").Pinned {
		t.Error("chair switch without pin should unpin")
	}
	// Unpinned again: participants may move the group as before.
	if _, err := c.Arbitrate("class", "alice", EqualControl, ""); err != nil {
		t.Errorf("participant entry after unpin: %v", err)
	}
}

func TestSwitchModeChecks(t *testing.T) {
	_, _, c := classroom(t)
	if _, _, err := c.SwitchMode("class", "alice", Mode(99), false); !errors.Is(err, ErrAborted) {
		t.Errorf("unknown mode: %v", err)
	}
	if _, _, err := c.SwitchMode("class", "ghost", FreeAccess, false); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member: %v", err)
	}
	// Only the chair may pin, even on an unpinned group.
	if _, _, err := c.SwitchMode("class", "alice", EqualControl, true); !errors.Is(err, ErrNotChair) {
		t.Errorf("participant pin: %v", err)
	}
	// A non-chair switch out of a gated mode is vetoed by the ModeGate
	// even without a pin.
	if _, err := c.Arbitrate("class", "alice", ModeratedQueue, ""); !errors.Is(err, ErrBusy) {
		t.Fatal("entry into moderated-queue should park the request")
	}
	if _, _, err := c.SwitchMode("class", "alice", FreeAccess, false); !errors.Is(err, ErrNotChair) {
		t.Errorf("gated exit: %v", err)
	}
}

func TestStateSnapshotIsAtomicView(t *testing.T) {
	_, _, c := classroom(t)
	if _, err := c.Arbitrate("class", "alice", EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Arbitrate("class", "bob", EqualControl, ""); !errors.Is(err, ErrBusy) {
		t.Fatal("bob should queue")
	}
	snap := c.Snapshot("class")
	if snap.Mode != EqualControl || snap.Holder != "alice" || snap.Pinned {
		t.Errorf("snapshot = %+v", snap)
	}
	if len(snap.Queue) != 1 || snap.Queue[0] != group.MemberID("bob") {
		t.Errorf("queue = %v", snap.Queue)
	}
	if len(snap.Suspended) != 0 {
		t.Errorf("suspended = %v", snap.Suspended)
	}
}

func TestOrphanedPinLapsesWhenChairLeaves(t *testing.T) {
	reg, _, c := classroom(t)
	if _, _, err := c.SwitchMode("class", "teacher", FreeAccess, true); err != nil {
		t.Fatal(err)
	}
	// While the chair is present the pin binds.
	if _, _, err := c.SwitchMode("class", "alice", EqualControl, false); !errors.Is(err, ErrNotChair) {
		t.Fatalf("pin should bind while the chair is a member: %v", err)
	}
	if err := reg.Leave("class", "teacher"); err != nil {
		t.Fatal(err)
	}
	// With the chair gone the pin must not lock the group into its mode
	// forever: a remaining member may move it again.
	if mode, changed, err := c.SwitchMode("class", "alice", EqualControl, false); err != nil || mode != EqualControl || !changed {
		t.Fatalf("orphaned pin still binds: (%v, %v, %v)", mode, changed, err)
	}
	if !c.Snapshot("class").Pinned {
		t.Fatal("pin flag itself should persist (it resumes if the chair rejoins)")
	}
	// The chair rejoining restores enforcement.
	if err := reg.Join("class", "teacher"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SwitchMode("class", "alice", FreeAccess, false); !errors.Is(err, ErrNotChair) {
		t.Fatalf("pin should resume with the chair back: %v", err)
	}
}

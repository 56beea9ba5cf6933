package floor

import (
	"errors"
	"testing"

	"dmps/internal/group"
	"dmps/internal/resource"
)

// classroom builds the standard test fixture: a class group with a
// teacher (priority 5), two token-capable students (priority 2) and one
// low-priority student (priority 1).
func classroom(t *testing.T) (*group.Registry, *resource.Monitor, *Controller) {
	t.Helper()
	reg := group.NewRegistry()
	for _, m := range []group.Member{
		{ID: "teacher", Role: group.Chair, Priority: 5},
		{ID: "alice", Role: group.Participant, Priority: 2},
		{ID: "bob", Role: group.Participant, Priority: 2},
		{ID: "carol", Role: group.Participant, Priority: 1},
	} {
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.CreateGroup("class", "teacher"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []group.MemberID{"alice", "bob", "carol"} {
		if err := reg.Join("class", id); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := resource.New(resource.MinBound, resource.Thresholds{Alpha: 0.5, Beta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return reg, mon, NewController(reg, mon)
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		FreeAccess: "free-access", EqualControl: "equal-control",
		GroupDiscussion: "group-discussion", DirectContact: "direct-contact",
	} {
		if m.String() != want || !m.Valid() {
			t.Errorf("%d: %q valid=%v", int(m), m.String(), m.Valid())
		}
	}
	if Mode(0).Valid() || Mode(9).Valid() {
		t.Error("invalid modes")
	}
}

func TestFreeAccessGrantsEveryone(t *testing.T) {
	_, _, c := classroom(t)
	for _, id := range []group.MemberID{"teacher", "alice", "carol"} {
		dec, err := c.Arbitrate("class", id, FreeAccess, "")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !dec.Granted {
			t.Errorf("%s not granted", id)
		}
	}
	// Even priority-1 carol: free access has "no privacy and priority".
	if c.ModeOf("class") != FreeAccess {
		t.Errorf("mode = %v", c.ModeOf("class"))
	}
}

func TestArbitrateRequiresMembership(t *testing.T) {
	reg, _, c := classroom(t)
	if err := reg.Register(group.Member{ID: "outsider", Role: group.Participant, Priority: 9}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Arbitrate("class", "outsider", FreeAccess, "")
	if !errors.Is(err, ErrNotMember) || !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrNotMember wrapping ErrAborted", err)
	}
}

func TestEqualControlSingleHolder(t *testing.T) {
	_, _, c := classroom(t)
	dec, err := c.Arbitrate("class", "alice", EqualControl, "")
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Granted || dec.Holder != "alice" {
		t.Errorf("dec = %+v", dec)
	}
	// Re-request by the holder is idempotent.
	dec, err = c.Arbitrate("class", "alice", EqualControl, "")
	if err != nil || !dec.Granted {
		t.Errorf("re-request: %+v %v", dec, err)
	}
	// Bob queues.
	dec, err = c.Arbitrate("class", "bob", EqualControl, "")
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v", err)
	}
	if dec.Granted || dec.QueuePosition != 1 || dec.Holder != "alice" {
		t.Errorf("dec = %+v", dec)
	}
	// Re-request does not duplicate the queue entry.
	dec, _ = c.Arbitrate("class", "bob", EqualControl, "")
	if dec.QueuePosition != 1 {
		t.Errorf("duplicate queue entry: %+v", dec)
	}
	if q := c.Queue("class"); len(q) != 1 || q[0] != "bob" {
		t.Errorf("queue = %v", q)
	}
}

func TestEqualControlPriorityRequirement(t *testing.T) {
	_, _, c := classroom(t)
	_, err := c.Arbitrate("class", "carol", EqualControl, "")
	if !errors.Is(err, ErrPriority) {
		t.Errorf("err = %v (carol has priority 1 < 2)", err)
	}
}

func TestReleasePromotesQueueHead(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", EqualControl, "")
	_, _ = c.Arbitrate("class", "bob", EqualControl, "")
	_, _ = c.Arbitrate("class", "teacher", EqualControl, "")
	next, err := c.Release("class", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if next != "bob" {
		t.Errorf("next = %q, want bob (FIFO)", next)
	}
	if c.Holder("class") != "bob" {
		t.Errorf("holder = %q", c.Holder("class"))
	}
	next, err = c.Release("class", "bob")
	if err != nil || next != "teacher" {
		t.Errorf("next = %q, %v", next, err)
	}
	next, err = c.Release("class", "teacher")
	if err != nil || next != "" {
		t.Errorf("floor should be free, got %q %v", next, err)
	}
}

func TestReleaseByNonHolder(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", EqualControl, "")
	if _, err := c.Release("class", "bob"); !errors.Is(err, ErrNotHolder) {
		t.Errorf("err = %v", err)
	}
}

func TestPassToken(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", EqualControl, "")
	_, _ = c.Arbitrate("class", "bob", EqualControl, "")
	// Holder passes directly to teacher, skipping the queue.
	if err := c.Pass("class", "alice", "teacher"); err != nil {
		t.Fatal(err)
	}
	if c.Holder("class") != "teacher" {
		t.Errorf("holder = %q", c.Holder("class"))
	}
	// Bob is still queued.
	if q := c.Queue("class"); len(q) != 1 || q[0] != "bob" {
		t.Errorf("queue = %v", q)
	}
	// Passing to a queued member removes them from the queue.
	if err := c.Pass("class", "teacher", "bob"); err != nil {
		t.Fatal(err)
	}
	if q := c.Queue("class"); len(q) != 0 {
		t.Errorf("queue = %v", q)
	}
}

func TestPassErrors(t *testing.T) {
	reg, _, c := classroom(t)
	mustGrant(t, c, "alice", EqualControl, "")
	if err := c.Pass("class", "bob", "teacher"); !errors.Is(err, ErrNotHolder) {
		t.Errorf("non-holder pass: %v", err)
	}
	if err := c.Pass("class", "alice", "carol"); !errors.Is(err, ErrPriority) {
		t.Errorf("low-priority recipient: %v", err)
	}
	if err := reg.Register(group.Member{ID: "out", Role: group.Participant, Priority: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Pass("class", "alice", "out"); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member recipient: %v", err)
	}
}

func TestGroupDiscussionGrantsSubgroup(t *testing.T) {
	reg, _, c := classroom(t)
	// Alice creates a breakout and invites bob.
	if err := reg.CreateGroup("breakout", "alice"); err != nil {
		t.Fatal(err)
	}
	inv, err := reg.Invite("breakout", "alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Respond(inv.ID, "bob", true); err != nil {
		t.Fatal(err)
	}
	for _, id := range []group.MemberID{"alice", "bob"} {
		dec, err := c.Arbitrate("breakout", id, GroupDiscussion, "")
		if err != nil || !dec.Granted {
			t.Errorf("%s: %+v %v", id, dec, err)
		}
	}
	// Carol is not in the breakout.
	if _, err := c.Arbitrate("breakout", "carol", GroupDiscussion, ""); !errors.Is(err, ErrNotMember) {
		t.Errorf("err = %v", err)
	}
}

func TestDirectContact(t *testing.T) {
	_, _, c := classroom(t)
	dec, err := c.Arbitrate("class", "alice", DirectContact, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Granted || dec.Target != "bob" {
		t.Errorf("dec = %+v", dec)
	}
	if c.ContactPeer("class", "alice") != "bob" || c.ContactPeer("class", "bob") != "alice" {
		t.Error("contact pair not recorded")
	}
	c.EndContact("class", "bob")
	if c.ContactPeer("class", "alice") != "" || c.ContactPeer("class", "bob") != "" {
		t.Error("EndContact should clear both sides")
	}
	c.EndContact("class", "bob") // idempotent
}

func TestDirectContactValidation(t *testing.T) {
	_, _, c := classroom(t)
	if _, err := c.Arbitrate("class", "alice", DirectContact, ""); !errors.Is(err, ErrBadTarget) {
		t.Errorf("empty target: %v", err)
	}
	if _, err := c.Arbitrate("class", "alice", DirectContact, "alice"); !errors.Is(err, ErrBadTarget) {
		t.Errorf("self target: %v", err)
	}
	if _, err := c.Arbitrate("class", "alice", DirectContact, "ghost"); !errors.Is(err, ErrBadTarget) {
		t.Errorf("unknown target: %v", err)
	}
	if _, err := c.Arbitrate("class", "alice", DirectContact, "carol"); !errors.Is(err, ErrPriority) {
		t.Errorf("low-priority target: %v", err)
	}
	if _, err := c.Arbitrate("class", "carol", DirectContact, "alice"); !errors.Is(err, ErrPriority) {
		t.Errorf("low-priority requester: %v", err)
	}
}

func TestAbortArbitrateBelowBeta(t *testing.T) {
	_, mon, c := classroom(t)
	mon.Set(resource.Vector{Network: 0.1, CPU: 0.1, Memory: 0.1}) // below β=0.2
	_, err := c.Arbitrate("class", "teacher", FreeAccess, "")
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v", err)
	}
}

func TestMediaSuspendInDegradedRegime(t *testing.T) {
	_, mon, c := classroom(t)
	mon.Set(resource.Vector{Network: 0.3, CPU: 0.3, Memory: 0.3}) // in [β, α)
	dec, err := c.Arbitrate("class", "teacher", FreeAccess, "")
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Granted {
		t.Error("degraded regime still grants")
	}
	if dec.Level != resource.Degraded {
		t.Errorf("level = %v", dec.Level)
	}
	// Carol (priority 1) is the lowest-priority member: suspended first.
	if len(dec.Suspended) != 1 || dec.Suspended[0] != "carol" {
		t.Errorf("suspended = %v, want [carol]", dec.Suspended)
	}
	if c.MediaAvailable("class", "carol") {
		t.Error("carol's media should be suspended")
	}
	if !c.MediaAvailable("class", "alice") {
		t.Error("alice unaffected")
	}
	// The next degraded arbitration suspends the next-lowest (alice or
	// bob at priority 2; IDs break ties by map order — accept either).
	dec2, err := c.Arbitrate("class", "teacher", FreeAccess, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dec2.Suspended) != 1 || dec2.Suspended[0] == "carol" {
		t.Errorf("second suspension = %v", dec2.Suspended)
	}
	if got := c.Snapshot("class").Suspended; len(got) != 2 {
		t.Errorf("Suspended = %v", got)
	}
	// Recovery lifts suspensions.
	c.Reinstate("class")
	if !c.MediaAvailable("class", "carol") {
		t.Error("Reinstate should restore carol")
	}
}

func TestMediaAvailableNonMember(t *testing.T) {
	_, _, c := classroom(t)
	if c.MediaAvailable("class", "ghost") {
		t.Error("unknown member cannot have media")
	}
}

func TestNilMonitorMeansNormal(t *testing.T) {
	reg := group.NewRegistry()
	_ = reg.Register(group.Member{ID: "m", Role: group.Chair, Priority: 5})
	_ = reg.CreateGroup("g", "m")
	c := NewController(reg, nil)
	dec, err := c.Arbitrate("g", "m", FreeAccess, "")
	if err != nil || !dec.Granted || dec.Level != resource.Normal {
		t.Errorf("dec = %+v err = %v", dec, err)
	}
}

func TestArbitrateInvalidMode(t *testing.T) {
	_, _, c := classroom(t)
	if _, err := c.Arbitrate("class", "alice", Mode(42), ""); !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v", err)
	}
}

func mustGrant(t *testing.T, c *Controller, member group.MemberID, mode Mode, target group.MemberID) Decision {
	t.Helper()
	dec, err := c.Arbitrate("class", member, mode, target)
	if err != nil {
		t.Fatalf("Arbitrate(%s, %v): %v", member, mode, err)
	}
	if !dec.Granted {
		t.Fatalf("not granted: %+v", dec)
	}
	return dec
}

package floor

import (
	"errors"
	"testing"

	"dmps/internal/group"
	"dmps/internal/resource"
)

// conformanceModes describes every registered policy's shared contract:
// the four paper modes plus ModeratedQueue all run behind the same
// controller bookkeeping (membership, thresholds, Media-Suspend) and
// must agree on it even though their grant rules differ.
var conformanceModes = []struct {
	mode          Mode
	name          string
	needsPriority bool // MinTokenPriority enforced on the requester
	target        group.MemberID
	firstGranted  bool // first eligible requester granted immediately
	exclusive     bool // a second requester queues instead of sending
}{
	{FreeAccess, "free-access", false, "", true, false},
	{EqualControl, "equal-control", true, "", true, true},
	{GroupDiscussion, "group-discussion", true, "", true, false},
	{DirectContact, "direct-contact", true, "bob", true, false},
	{ModeratedQueue, "moderated-queue", true, "", false, true},
	{RoundRobin, "round-robin", true, "", true, true},
}

// TestPolicyConformance runs the shared contract against every
// registered policy — the paper's four modes, ModeratedQueue, and the
// post-seed RoundRobin rotation.
func TestPolicyConformance(t *testing.T) {
	for _, tc := range conformanceModes {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("registered", func(t *testing.T) {
				p, ok := PolicyFor(tc.mode)
				if !ok {
					t.Fatalf("no policy for %v", tc.mode)
				}
				if p.Mode() != tc.mode {
					t.Errorf("Mode() = %v", p.Mode())
				}
				if tc.mode.String() != tc.name {
					t.Errorf("String() = %q, want %q", tc.mode, tc.name)
				}
				if got, ok := ParseMode(tc.name); !ok || got != tc.mode {
					t.Errorf("ParseMode(%q) = %v, %v", tc.name, got, ok)
				}
			})

			t.Run("membership required", func(t *testing.T) {
				reg, _, c := classroom(t)
				if err := reg.Register(group.Member{ID: "outsider", Role: group.Participant, Priority: 9}); err != nil {
					t.Fatal(err)
				}
				_, err := c.Arbitrate("class", "outsider", tc.mode, tc.target)
				if !errors.Is(err, ErrNotMember) || !errors.Is(err, ErrAborted) {
					t.Errorf("err = %v, want ErrNotMember wrapping ErrAborted", err)
				}
			})

			t.Run("abort below beta", func(t *testing.T) {
				_, mon, c := classroom(t)
				mon.Set(resource.Vector{Network: 0.1, CPU: 0.1, Memory: 0.1})
				if _, err := c.Arbitrate("class", "alice", tc.mode, tc.target); !errors.Is(err, ErrAborted) {
					t.Errorf("err = %v, want ErrAborted", err)
				}
			})

			t.Run("media-suspend in degraded regime", func(t *testing.T) {
				_, mon, c := classroom(t)
				mon.Set(resource.Vector{Network: 0.3, CPU: 0.3, Memory: 0.3})
				dec, err := c.Arbitrate("class", "alice", tc.mode, tc.target)
				if err != nil && !errors.Is(err, ErrBusy) {
					t.Fatalf("err = %v", err)
				}
				if dec.Level != resource.Degraded {
					t.Errorf("level = %v", dec.Level)
				}
				// Carol (priority 1) is the lowest-priority member and the
				// Media-Suspend victim regardless of policy.
				if len(dec.Suspended) != 1 || dec.Suspended[0] != "carol" {
					t.Errorf("suspended = %v, want [carol]", dec.Suspended)
				}
			})

			t.Run("priority rule", func(t *testing.T) {
				_, _, c := classroom(t)
				_, err := c.Arbitrate("class", "carol", tc.mode, tc.target)
				if tc.needsPriority && !errors.Is(err, ErrPriority) {
					t.Errorf("err = %v, want ErrPriority (carol has priority 1)", err)
				}
				if !tc.needsPriority && err != nil {
					t.Errorf("err = %v, want grant without priority", err)
				}
			})

			t.Run("first request", func(t *testing.T) {
				_, _, c := classroom(t)
				dec, err := c.Arbitrate("class", "alice", tc.mode, tc.target)
				if tc.firstGranted {
					if err != nil || !dec.Granted {
						t.Fatalf("dec = %+v, err = %v", dec, err)
					}
				} else {
					if !errors.Is(err, ErrBusy) || dec.Granted || dec.QueuePosition != 1 {
						t.Fatalf("dec = %+v, err = %v, want queued at 1", dec, err)
					}
				}
				if tc.mode != DirectContact && c.ModeOf("class") != tc.mode {
					t.Errorf("mode = %v, want %v", c.ModeOf("class"), tc.mode)
				}
			})

			t.Run("second requester and queue snapshot", func(t *testing.T) {
				_, _, c := classroom(t)
				_, _ = c.Arbitrate("class", "alice", tc.mode, tc.target)
				secondTarget := tc.target
				if secondTarget == "bob" {
					secondTarget = "teacher" // bob cannot contact himself
				}
				dec, err := c.Arbitrate("class", "bob", tc.mode, secondTarget)
				if !tc.exclusive {
					if err != nil || !dec.Granted {
						t.Fatalf("dec = %+v, err = %v, want concurrent grant", dec, err)
					}
					if q := c.Queue("class"); len(q) != 0 {
						t.Errorf("queue = %v, want empty", q)
					}
					return
				}
				if !errors.Is(err, ErrBusy) || dec.Granted {
					t.Fatalf("dec = %+v, err = %v, want queued", dec, err)
				}
				// Re-request keeps the same slot (no duplicates).
				again, _ := c.Arbitrate("class", "bob", tc.mode, tc.target)
				if again.QueuePosition != dec.QueuePosition {
					t.Errorf("re-request moved: %d → %d", dec.QueuePosition, again.QueuePosition)
				}
				q := c.Queue("class")
				if len(q) == 0 || q[len(q)-1] != "bob" {
					t.Fatalf("queue = %v, want bob last", q)
				}
				// Queue and Snapshot copy: mutating them must not leak in.
				q[len(q)-1] = "mallory"
				snap := c.Snapshot("class")
				snap.Queue[len(snap.Queue)-1] = "mallory"
				if got := c.Queue("class"); got[len(got)-1] != "bob" {
					t.Error("Queue or Snapshot aliases internal state")
				}
			})
		})
	}
}

func moderatedClassroom(t *testing.T) (*group.Registry, *Controller) {
	t.Helper()
	reg, _, c := classroom(t)
	// Teacher (the chair) takes the floor; alice and bob queue.
	if dec, err := c.Arbitrate("class", "teacher", ModeratedQueue, ""); err != nil || !dec.Granted {
		t.Fatalf("chair request: %+v %v", dec, err)
	}
	if _, err := c.Arbitrate("class", "alice", ModeratedQueue, ""); !errors.Is(err, ErrPending) {
		t.Fatalf("alice should be pending: %v", err)
	}
	if _, err := c.Arbitrate("class", "bob", ModeratedQueue, ""); !errors.Is(err, ErrPending) {
		t.Fatalf("bob should be pending: %v", err)
	}
	return reg, c
}

func TestModeratedChairGrantedWhenFree(t *testing.T) {
	_, c := moderatedClassroom(t)
	if c.Holder("class") != "teacher" {
		t.Errorf("holder = %q", c.Holder("class"))
	}
	if q := c.Queue("class"); len(q) != 2 || q[0] != "alice" || q[1] != "bob" {
		t.Errorf("queue = %v", q)
	}
}

func TestModeratedApprovalFlow(t *testing.T) {
	_, c := moderatedClassroom(t)
	// Approving bob while the floor is busy parks him as approved.
	dec, err := c.Approve("class", "teacher", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if dec.Granted || dec.QueuePosition != 2 {
		t.Errorf("dec = %+v, want approved-but-queued at 2", dec)
	}
	// Release promotes bob — approved — over alice, who queued first but
	// was never cleared by the chair.
	next, err := c.Release("class", "teacher")
	if err != nil {
		t.Fatal(err)
	}
	if next != "bob" {
		t.Errorf("next = %q, want bob (approved beats FIFO)", next)
	}
	if q := c.Queue("class"); len(q) != 1 || q[0] != "alice" {
		t.Errorf("queue = %v, want [alice]", q)
	}
	// With the floor busy again and alice unapproved, release frees it.
	next, err = c.Release("class", "bob")
	if err != nil || next != "" {
		t.Errorf("next = %q, %v, want free floor", next, err)
	}
	// Approving alice with a free floor grants immediately.
	dec, err = c.Approve("class", "teacher", "alice")
	if err != nil || !dec.Granted || dec.Holder != "alice" {
		t.Errorf("dec = %+v, err = %v", dec, err)
	}
	if q := c.Queue("class"); len(q) != 0 {
		t.Errorf("queue = %v", q)
	}
}

func TestModeratedApproveErrors(t *testing.T) {
	_, c := moderatedClassroom(t)
	if _, err := c.Approve("class", "alice", "bob"); !errors.Is(err, ErrNotChair) {
		t.Errorf("non-chair approve: %v", err)
	}
	if _, err := c.Approve("class", "teacher", "carol"); !errors.Is(err, ErrNotQueued) {
		t.Errorf("approve non-queued: %v", err)
	}
}

func TestApproveUnsupportedOutsideModeratedMode(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", EqualControl, "")
	if _, err := c.Approve("class", "teacher", "alice"); !errors.Is(err, ErrNoApproval) {
		t.Errorf("err = %v, want ErrNoApproval", err)
	}
}

func TestModeratedPassDelegates(t *testing.T) {
	_, c := moderatedClassroom(t)
	// The chair handing the floor over is itself an approval; the
	// recipient leaves the queue.
	if err := c.Pass("class", "teacher", "alice"); err != nil {
		t.Fatal(err)
	}
	if c.Holder("class") != "alice" {
		t.Errorf("holder = %q", c.Holder("class"))
	}
	if q := c.Queue("class"); len(q) != 1 || q[0] != "bob" {
		t.Errorf("queue = %v", q)
	}
	// A non-chair holder may NOT pass to an unapproved member — that
	// would bypass the chair's moderation entirely.
	if err := c.Pass("class", "alice", "bob"); !errors.Is(err, ErrUnapproved) {
		t.Errorf("unapproved pass: err = %v, want ErrUnapproved", err)
	}
	// Passing back to the chair is always fine.
	if err := c.Pass("class", "alice", "teacher"); err != nil {
		t.Fatal(err)
	}
	// Once the chair approves bob, the next holder may pass to him.
	if _, err := c.Approve("class", "teacher", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := c.Pass("class", "teacher", "bob"); err != nil {
		t.Fatal(err)
	}
	if c.Holder("class") != "bob" {
		t.Errorf("holder = %q", c.Holder("class"))
	}
}

// TestModeratedModeChangeRequiresChair covers the ModeGate seam: a
// participant must not be able to flip a moderated group into another
// mode (that would dissolve the moderation without chair consent), while
// the chair may, and Direct Contact — which never changes the prevailing
// mode — stays available to everyone.
func TestModeratedModeChangeRequiresChair(t *testing.T) {
	_, c := moderatedClassroom(t)
	for _, mode := range []Mode{FreeAccess, EqualControl, GroupDiscussion} {
		if _, err := c.Arbitrate("class", "alice", mode, ""); !errors.Is(err, ErrNotChair) {
			t.Errorf("%v: err = %v, want ErrNotChair", mode, err)
		}
	}
	// The denied attempts leave mode, holder and queue untouched.
	if c.ModeOf("class") != ModeratedQueue {
		t.Errorf("mode = %v, want ModeratedQueue", c.ModeOf("class"))
	}
	if c.Holder("class") != "teacher" {
		t.Errorf("holder = %q, want teacher", c.Holder("class"))
	}
	if q := c.Queue("class"); len(q) != 2 {
		t.Errorf("queue = %v, want 2 pending", q)
	}
	// Direct Contact is concurrent: not gated even in a moderated group.
	if dec, err := c.Arbitrate("class", "alice", DirectContact, "bob"); err != nil || !dec.Granted {
		t.Errorf("direct contact: %+v, %v", dec, err)
	}
	if c.ModeOf("class") != ModeratedQueue {
		t.Errorf("direct contact changed mode to %v", c.ModeOf("class"))
	}
	// The chair may switch the group away.
	if dec, err := c.Arbitrate("class", "teacher", FreeAccess, ""); err != nil || !dec.Granted {
		t.Errorf("chair switch: %+v, %v", dec, err)
	}
	if c.ModeOf("class") != FreeAccess {
		t.Errorf("mode = %v, want FreeAccess", c.ModeOf("class"))
	}
}

// TestModeGateDeniedRequestDoesNotSuspend: the gate runs before the
// Media-Suspend step, so a rejected mode switch in the degraded regime
// must not suspend an uninvolved member's media.
func TestModeGateDeniedRequestDoesNotSuspend(t *testing.T) {
	_, mon, c := classroom(t)
	if dec, err := c.Arbitrate("class", "teacher", ModeratedQueue, ""); err != nil || !dec.Granted {
		t.Fatalf("chair request: %+v, %v", dec, err)
	}
	mon.Set(resource.Vector{Network: 0.3, CPU: 0.3, Memory: 0.3})
	dec, err := c.Arbitrate("class", "alice", FreeAccess, "")
	if !errors.Is(err, ErrNotChair) {
		t.Fatalf("err = %v, want ErrNotChair", err)
	}
	if len(dec.Suspended) != 0 {
		t.Errorf("decision suspended %v, want none for a gate-denied request", dec.Suspended)
	}
	if got := c.Snapshot("class").Suspended; len(got) != 0 {
		t.Errorf("suspended = %v, want none", got)
	}
}

// TestModeratedApprovedRerequestWhileFree: an approved member who
// re-requests while the floor is free (reachable after a mode switch
// away, which clears the holder but keeps queue and approvals) is
// granted, mirroring Release's approved-first promotion.
func TestModeratedApprovedRerequestWhileFree(t *testing.T) {
	_, c := moderatedClassroom(t)
	if _, err := c.Approve("class", "teacher", "alice"); err != nil {
		t.Fatal(err)
	}
	if dec, err := c.Arbitrate("class", "teacher", FreeAccess, ""); err != nil || !dec.Granted {
		t.Fatalf("chair switch: %+v, %v", dec, err)
	}
	dec, err := c.Arbitrate("class", "alice", ModeratedQueue, "")
	if err != nil || !dec.Granted || dec.Holder != "alice" {
		t.Fatalf("approved re-request: %+v, %v, want immediate grant", dec, err)
	}
	if q := c.Queue("class"); len(q) != 1 || q[0] != "bob" {
		t.Errorf("queue = %v, want [bob]", q)
	}
}

func TestRegisterPolicyRejectsAliasCollision(t *testing.T) {
	// "group-chat" would make the alias "group" ambiguous with the
	// builtin group-discussion.
	if err := RegisterPolicy("group-chat", fakeMode201{}); err == nil {
		t.Error("alias collision should be rejected")
	}
	// A bare name equal to a builtin alias is just as ambiguous.
	if err := RegisterPolicy("equal", fakeMode201{}); err == nil {
		t.Error("name shadowing an alias should be rejected")
	}
}

type fakeMode201 struct{ tokenSemantics }

func (fakeMode201) Mode() Mode { return Mode(201) }
func (fakeMode201) Decide(_ Roster, st *State, req Request) (Decision, error) {
	return Decision{Granted: true}, nil
}

func TestModeratedCapabilities(t *testing.T) {
	_, c := moderatedClassroom(t)
	// Holder (the chair here) and chair both deliver; queued members not.
	if cap := c.CapabilityFor("class", "teacher"); !cap.MessageWindow || !cap.Whiteboard {
		t.Errorf("chair capability = %+v", cap)
	}
	if cap := c.CapabilityFor("class", "alice"); cap.MessageWindow || cap.Whiteboard {
		t.Errorf("queued member capability = %+v", cap)
	}
	// After a pass, the new holder delivers and the chair retains the
	// moderator's own window.
	if err := c.Pass("class", "teacher", "alice"); err != nil {
		t.Fatal(err)
	}
	if cap := c.CapabilityFor("class", "alice"); !cap.MessageWindow || !cap.PassToken {
		t.Errorf("holder capability = %+v", cap)
	}
	if cap := c.CapabilityFor("class", "teacher"); !cap.MessageWindow {
		t.Errorf("chair lost the moderator window: %+v", cap)
	}
}

func TestParseModeAliases(t *testing.T) {
	cases := map[string]Mode{
		"free-access":      FreeAccess,
		"free":             FreeAccess,
		"equal-control":    EqualControl,
		"equal":            EqualControl,
		"group-discussion": GroupDiscussion,
		"group":            GroupDiscussion,
		"direct-contact":   DirectContact,
		"direct":           DirectContact,
		"moderated-queue":  ModeratedQueue,
		"moderated":        ModeratedQueue,
		" Equal-Control ":  EqualControl, // trimmed, case-folded
	}
	for s, want := range cases {
		if got, ok := ParseMode(s); !ok || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	if _, ok := ParseMode("anarchy"); ok {
		t.Error("unknown mode parsed")
	}
	// A single-word custom mode has no alias; in particular the empty
	// string must never resolve to it.
	registerForTest(t, "lecture", fakeMode202{})
	if got, ok := ParseMode("lecture"); !ok || got != Mode(202) {
		t.Errorf("ParseMode(lecture) = %v, %v", got, ok)
	}
	for _, s := range []string{"", "   "} {
		if got, ok := ParseMode(s); ok {
			t.Errorf("ParseMode(%q) = %v, want no match", s, got)
		}
	}
}

type fakeMode202 struct{ tokenSemantics }

func (fakeMode202) Mode() Mode { return Mode(202) }
func (fakeMode202) Decide(_ Roster, st *State, req Request) (Decision, error) {
	return Decision{Granted: true}, nil
}

func TestRegisterPolicyRejectsDuplicates(t *testing.T) {
	if err := RegisterPolicy("equal-control-again", equalControlPolicy{}); err == nil {
		t.Error("duplicate mode registration should fail")
	}
	if err := RegisterPolicy("equal-control", fakeMode200{}); err == nil {
		t.Error("duplicate name registration should fail")
	}
}

// registerForTest registers a custom policy for the length of one
// test, so that a repeated run (-count) can register it again and no
// later test — the exhaustive exploration walks every registered
// policy — meets it.
func registerForTest(t *testing.T, name string, p Policy) {
	t.Helper()
	if err := RegisterPolicy(name, p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		policyMu.Lock()
		defer policyMu.Unlock()
		delete(policies, p.Mode())
		delete(modeNames, p.Mode())
	})
}

// fakeMode200 is a minimal custom policy used to exercise registration.
type fakeMode200 struct{ tokenSemantics }

func (fakeMode200) Mode() Mode { return Mode(200) }
func (fakeMode200) Decide(_ Roster, st *State, req Request) (Decision, error) {
	st.Mode = Mode(200)
	return Decision{Granted: true}, nil
}

func TestRegisterCustomPolicy(t *testing.T) {
	registerForTest(t, "always-yes", fakeMode200{})
	if got, ok := ParseMode("always-yes"); !ok || got != Mode(200) {
		t.Fatalf("ParseMode = %v, %v", got, ok)
	}
	if Mode(200).String() != "always-yes" {
		t.Errorf("String = %q", Mode(200))
	}
	_, _, c := classroom(t)
	dec, err := c.Arbitrate("class", "carol", Mode(200), "")
	if err != nil || !dec.Granted {
		t.Errorf("custom policy: %+v %v", dec, err)
	}
	if c.ModeOf("class") != Mode(200) {
		t.Errorf("mode = %v", c.ModeOf("class"))
	}
}

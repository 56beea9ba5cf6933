package floor

import (
	"fmt"
	"sync"

	"dmps/internal/group"
	"dmps/internal/resource"
)

// Roster is the membership view a Policy consults: who is in the group,
// what priority they carry, and who chairs it. *group.Registry satisfies
// it; tests may substitute fakes.
type Roster interface {
	IsMember(groupID string, member group.MemberID) bool
	Member(id group.MemberID) (group.Member, error)
	Chair(groupID string) (group.MemberID, error)
}

var _ Roster = (*group.Registry)(nil)

// Request is one floor request as seen by a Policy. The Controller has
// already verified membership and the resource regime (Abort-Arbitrate
// and Media-Suspend are controller bookkeeping, not policy decisions).
type Request struct {
	// Group is the group the floor is requested in.
	Group string
	// Mode is the requested floor mode.
	Mode Mode
	// Requester is the resolved member record (priority included).
	Requester group.Member
	// Target is the Direct Contact peer ("" for the other modes).
	Target group.MemberID
	// Level is the resource regime the arbitration runs in.
	Level resource.Level
}

// State is one group's floor bookkeeping. The Controller owns it and
// hands it to the active Policy under the controller's lock; policies
// mutate it directly and must not retain it across calls.
type State struct {
	// Group is the group this state belongs to (set by the Controller).
	Group string
	// Mode is the group's current floor mode.
	Mode Mode
	// Holder is the current token holder ("" when the floor is free).
	Holder group.MemberID
	// Queue holds pending requests in FIFO order.
	Queue []group.MemberID
	// Contacts tracks direct-contact pairs: member → peer.
	Contacts map[group.MemberID]group.MemberID
	// Approved marks queued members the chair has cleared to receive the
	// floor on the next release (ModeratedQueue).
	Approved map[group.MemberID]bool
}

// queuePosition returns the member's 1-based slot in the queue (0 when
// absent).
func (st *State) queuePosition(member group.MemberID) int {
	for i, q := range st.Queue {
		if q == member {
			return i + 1
		}
	}
	return 0
}

// enqueue appends the member unless already queued and returns their
// 1-based position.
func (st *State) enqueue(member group.MemberID) int {
	if pos := st.queuePosition(member); pos != 0 {
		return pos
	}
	st.Queue = append(st.Queue, member)
	return len(st.Queue)
}

// dequeue removes the member from the queue and approval set.
func (st *State) dequeue(member group.MemberID) {
	for i, q := range st.Queue {
		if q == member {
			st.Queue = append(st.Queue[:i], st.Queue[i+1:]...)
			break
		}
	}
	delete(st.Approved, member)
}

// Policy is one pluggable floor-control discipline. Each of the paper's
// four modes is a Policy; new moderation styles implement this interface
// and register with RegisterPolicy. All methods run under the owning
// Controller's lock, after membership and resource checks have passed.
type Policy interface {
	// Mode is the mode this policy arbitrates.
	Mode() Mode
	// Decide processes one floor request against the group state. A nil
	// error means the request was granted; ErrBusy-wrapped errors mean it
	// was queued (the Decision carries the position); anything else is a
	// denial.
	Decide(r Roster, st *State, req Request) (Decision, error)
	// Release gives the floor up, returning the next holder ("" when the
	// floor is now free).
	Release(r Roster, st *State, member group.MemberID) (group.MemberID, error)
	// Pass hands the floor from its holder directly to another member.
	Pass(r Roster, st *State, from, to group.MemberID) error
}

// ModeGate is implemented by policies that restrict switching the group
// away from their mode. Before the Controller hands a request for a
// *different* mode to that mode's policy, it asks the outgoing policy's
// gate; a non-nil error denies the request without touching the state.
// Without this, any eligible member could flip a chair-moderated group
// into free-access or equal-control and bypass moderation entirely.
type ModeGate interface {
	// AllowModeChange reports whether the request (for req.Mode) may take
	// the group out of this policy's mode. Runs under the controller's
	// lock, after membership and resource checks.
	AllowModeChange(r Roster, st *State, req Request) error
}

// Approver is implemented by policies whose queued requests need an
// explicit chair decision (ModeratedQueue). Approve runs under the
// controller's lock.
type Approver interface {
	// Approve lets approver clear a queued member. The Decision reports
	// whether the member received the floor immediately (Granted) or
	// stays queued-but-approved (QueuePosition set).
	Approve(r Roster, st *State, groupID string, approver, member group.MemberID) (Decision, error)
}

// The package-level policy registry. Builtins are registered at init;
// RegisterPolicy adds custom modes.
var (
	policyMu sync.RWMutex
	policies = make(map[Mode]Policy)
)

// RegisterPolicy makes a policy (and its mode's string name) available to
// every Controller. Registering an already-registered mode fails, so
// builtins cannot be displaced.
func RegisterPolicy(name string, p Policy) error {
	policyMu.Lock()
	defer policyMu.Unlock()
	m := p.Mode()
	if _, dup := policies[m]; dup {
		return fmt.Errorf("floor: mode %d already registered", int(m))
	}
	for existing, n := range modeNames {
		// A new name may not collide with an existing name or alias in
		// either direction, or ParseMode would become nondeterministic.
		// (int form: Mode.String would re-enter policyMu.)
		if n == name || modeAlias(n) == name {
			return fmt.Errorf("floor: mode name %q already names mode %d", name, int(existing))
		}
		if a := modeAlias(name); a != "" && (a == n || a == modeAlias(n)) {
			return fmt.Errorf("floor: alias %q of %q already names mode %d", a, name, int(existing))
		}
	}
	policies[m] = p
	modeNames[m] = name
	return nil
}

// PolicyFor returns the registered policy for a mode.
func PolicyFor(mode Mode) (Policy, bool) {
	policyMu.RLock()
	defer policyMu.RUnlock()
	p, ok := policies[mode]
	return p, ok
}

// Modes lists every registered mode (builtin and custom), unordered.
func Modes() []Mode {
	policyMu.RLock()
	defer policyMu.RUnlock()
	out := make([]Mode, 0, len(policies))
	for m := range policies {
		out = append(out, m)
	}
	return out
}

func mustRegister(name string, p Policy) {
	if err := RegisterPolicy(name, p); err != nil {
		panic(err)
	}
}

func init() {
	mustRegister("free-access", freeAccessPolicy{})
	mustRegister("equal-control", equalControlPolicy{})
	mustRegister("group-discussion", groupDiscussionPolicy{})
	mustRegister("direct-contact", directContactPolicy{})
	mustRegister("moderated-queue", moderatedQueuePolicy{})
}

// Package floor implements the paper's floor control mechanism as a
// pluggable policy engine. The four control modes (Free Access, Equal
// Control, Group Discussion, Direct Contact) are each one Policy behind a
// slim Controller that owns only what the Z specification centralizes:
// membership checks, the α/β resource thresholds (Abort-Arbitrate below
// β, Media-Suspend in [β, α)), and suspension bookkeeping. A fifth,
// BFCP-style ModeratedQueue policy (chair approves queued requests)
// exercises the seam; RegisterPolicy admits further custom modes.
//
// All floor requests are centralized: the DMPS server owns one Controller
// and routes every client request through it, exactly as the paper's
// group administration does. Granted requests then run "with the same
// highest priority" as the global clock control. Centralized does not
// mean serialized, though: controller state is sharded per group (each
// group's floorState carries its own lock behind a lock-striped map), so
// arbitration in one group never waits on arbitration in another.
//
// Lock order: the server runs every floor transition inside its group
// log's append, and a controller method takes the registry's locks
// under the group's floor lock, so the locks nest group log → floor
// state → registry and never the other way round.
package floor

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dmps/internal/group"
	"dmps/internal/resource"
	"dmps/internal/shard"
)

// Mode names a floor control discipline. The paper's four modes are
// builtin; RegisterPolicy adds more.
type Mode int

const (
	// FreeAccess: everyone (session chair and participants alike) may send
	// to the message window or whiteboard; no privacy, no priority.
	FreeAccess Mode = iota + 1
	// EqualControl: exactly one member delivers at a time, holding the
	// floor token until they pass it.
	EqualControl
	// GroupDiscussion: members of an invitation-built sub-group all send
	// together; the creator is the sub-group's session chair.
	GroupDiscussion
	// DirectContact: two members communicate in a private window,
	// concurrently with the other modes.
	DirectContact
	// ModeratedQueue: BFCP-style chair moderation — requests queue until
	// the session chair approves them (not in the paper).
	ModeratedQueue
	// RoundRobin: Equal Control whose release auto-rotates — the
	// releasing holder rejoins the tail of the queue, so contenders take
	// turns without re-requesting (not in the paper; the first policy
	// registered through the RegisterPolicy seam after the builtins).
	RoundRobin
)

// modeNames maps registered modes to their wire names. It is populated by
// policy registration and guarded by policyMu.
var modeNames = make(map[Mode]string)

// String implements fmt.Stringer.
func (m Mode) String() string {
	policyMu.RLock()
	s, ok := modeNames[m]
	policyMu.RUnlock()
	if ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Valid reports whether m has a registered policy.
func (m Mode) Valid() bool { _, ok := PolicyFor(m); return ok }

// ParseMode resolves a mode's wire name (e.g. "equal-control") or its
// short alias (the leading word, e.g. "equal") to the mode. It is the
// single parser the server, client library and command-line tools share.
// Full names take precedence over aliases, and RegisterPolicy rejects
// alias collisions, so resolution is deterministic.
func ParseMode(s string) (Mode, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	policyMu.RLock()
	defer policyMu.RUnlock()
	for m, name := range modeNames {
		if s == name {
			return m, true
		}
	}
	for m, name := range modeNames {
		if a := modeAlias(name); a != "" && s == a {
			return m, true
		}
	}
	return 0, false
}

// modeAlias is a wire name's short form: its leading "-"-separated word
// ("" when the name has no dash, so single-word names get no alias).
func modeAlias(name string) string {
	if head, _, found := strings.Cut(name, "-"); found {
		return head
	}
	return ""
}

// MinTokenPriority is the Z spec's Priority ≥ 2 requirement for the
// token-based modes (Equal Control, Group Discussion, Direct Contact,
// Moderated Queue).
const MinTokenPriority = 2

// Arbitration errors.
var (
	// ErrAborted is Abort-Arbitrate: availability fell below β, or a
	// structural precondition failed.
	ErrAborted = errors.New("floor: arbitration aborted")
	// ErrNotMember is returned when the requester has not joined the
	// group (G ∉ Joined-Groups).
	ErrNotMember = errors.New("floor: requester not in group")
	// ErrPriority is returned when the requester's priority is below the
	// mode's requirement.
	ErrPriority = errors.New("floor: insufficient priority")
	// ErrBusy is returned when another member holds the floor; the
	// request is queued.
	ErrBusy = errors.New("floor: floor busy, request queued")
	// ErrNotHolder is returned when a release/pass comes from a member
	// not holding the floor.
	ErrNotHolder = errors.New("floor: not the floor holder")
	// ErrBadTarget is returned for Direct Contact without a valid target.
	ErrBadTarget = errors.New("floor: invalid direct-contact target")
	// ErrNotChair is returned when a ModeratedQueue approval comes from a
	// member other than the session chair.
	ErrNotChair = errors.New("floor: approver is not the session chair")
	// ErrNotQueued is returned when approving a member with no pending
	// request.
	ErrNotQueued = errors.New("floor: member not queued")
	// ErrUnapproved is returned when a non-chair holder passes the
	// moderated floor to a member the chair has not approved.
	ErrUnapproved = errors.New("floor: recipient not approved by the chair")
	// ErrNoApproval is returned when the group's policy has no chair-
	// approval seam (it does not implement Approver).
	ErrNoApproval = errors.New("floor: mode does not support approval")
)

// ErrPending wraps ErrBusy for requests queued behind a chair decision
// (ModeratedQueue): the request is parked, not failed, and callers that
// treat ErrBusy as "queued" need no special case.
var ErrPending = fmt.Errorf("pending chair approval (%w)", ErrBusy)

// Decision is the outcome of one arbitration.
type Decision struct {
	// Granted reports whether the requester received the floor/media.
	Granted bool
	// Mode echoes the arbitrated mode.
	Mode Mode
	// Holder is the token holder after this arbitration.
	Holder group.MemberID
	// QueuePosition is the requester's 1-based queue slot when not
	// granted (0 when granted).
	QueuePosition int
	// Suspended lists members whose media were suspended by Media-Suspend
	// during this arbitration (degraded regime).
	Suspended []group.MemberID
	// Level is the resource regime the arbitration ran in.
	Level resource.Level
	// Target echoes the Direct Contact peer.
	Target group.MemberID
	// Unchanged reports a repeat request that moved nothing: the holder
	// asked again, a queued member asked again in the same mode, or the
	// chair re-approved an approved member. The floor — mode, holder,
	// queue and approvals — is exactly as it was, so there is no
	// transition to announce. (A grant in a mode where everyone sends is
	// the member's own grant, never a repeat; a Media-Suspend the
	// request caused is reported in Suspended, not here.)
	Unchanged bool
}

// Controller is the centralized floor control state for all groups. It
// owns membership/threshold/suspension bookkeeping and delegates every
// mode-specific decision to the registered Policy. It is safe for
// concurrent use, and its state is sharded per group: each group's
// floorState carries its own mutex behind a lock-striped map, so
// arbitration in one group never contends with arbitration in another.
type Controller struct {
	registry *group.Registry
	monitor  *resource.Monitor
	floors   *shard.Map[*floorState]
}

// floorState pairs the policy-visible State with the suspension set and
// the pin flag, which are controller bookkeeping no policy may touch.
// Its mutex is the group's arbitration lock: every Controller method
// takes it for exactly one group, so independent groups proceed in
// parallel.
type floorState struct {
	mu        sync.Mutex
	st        State
	suspended map[group.MemberID]bool
	// pinned is the chair-pinned policy flag: while set, only the
	// session chair may move the group to a different mode — whether by
	// an explicit SwitchMode or by requesting a different mode's floor.
	pinned bool
}

// NewController returns a controller over the given group registry and
// resource monitor. A nil monitor means resources are always Normal.
func NewController(reg *group.Registry, mon *resource.Monitor) *Controller {
	return &Controller{
		registry: reg,
		monitor:  mon,
		floors:   shard.NewMap[*floorState](),
	}
}

func (c *Controller) state(groupID string) *floorState {
	return c.floors.GetOrCreate(groupID, func() *floorState {
		return &floorState{
			st: State{
				Group:    groupID,
				Mode:     FreeAccess,
				Contacts: make(map[group.MemberID]group.MemberID),
				Approved: make(map[group.MemberID]bool),
			},
			suspended: make(map[group.MemberID]bool),
		}
	})
}

// level reads the current resource regime.
func (c *Controller) level() resource.Level {
	if c.monitor == nil {
		return resource.Normal
	}
	return c.monitor.Snapshot().Level
}

// policyOf returns the policy governing the group's current mode.
func (c *Controller) policyOf(fs *floorState) (Policy, error) {
	p, ok := PolicyFor(fs.st.Mode)
	if !ok {
		return nil, fmt.Errorf("%w: no policy for mode %d", ErrAborted, int(fs.st.Mode))
	}
	return p, nil
}

// Arbitrate is FCM-Arbitrate: it processes one floor request by member M
// for mode F in group G (with DM the Direct Contact peer when F is
// DirectContact). The controller runs the Z specification's centralized
// steps, then hands the mode rules to the registered policy:
//
//  1. Resource-Available < β            → Abort-Arbitrate.
//  2. G ∉ Joined-Groups(M)              → Abort-Arbitrate (ErrNotMember).
//  3. β ≤ Resource-Available < α        → Media-Suspend the lowest-
//     priority member holding media, then proceed.
//  4. Mode rules                        → Policy.Decide.
func (c *Controller) Arbitrate(groupID string, member group.MemberID, mode Mode, target group.MemberID) (Decision, error) {
	pol, ok := PolicyFor(mode)
	if !ok {
		return Decision{}, fmt.Errorf("%w: unknown mode %d", ErrAborted, int(mode))
	}
	lvl := c.level()
	dec := Decision{Mode: mode, Level: lvl}
	// Step 1: Abort-Arbitrate below β.
	if lvl == resource.Critical {
		return dec, fmt.Errorf("%w: resource availability below β", ErrAborted)
	}
	// Step 2: membership.
	if !c.registry.IsMember(groupID, member) {
		return dec, fmt.Errorf("%w: %q in %q (%w)", ErrNotMember, member, groupID, ErrAborted)
	}
	requester, err := c.registry.Member(member)
	if err != nil {
		return dec, fmt.Errorf("%w: %v", ErrAborted, err)
	}

	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	req := Request{
		Group:     groupID,
		Mode:      mode,
		Requester: requester,
		Target:    target,
		Level:     lvl,
	}
	// A request for a different mode must clear the group's pin (a
	// chair-pinned policy gates mode *entry* behind the chair, not just
	// exit) and then the outgoing policy's gate (if any), so a mode that
	// moderates its group cannot be switched off by an arbitrary member.
	// Both run before Media-Suspend: a rejected request must not suspend
	// an uninvolved member's media. Direct Contact is exempt from the
	// pin, as it is from ModeGates: it runs concurrently and never
	// changes the group's prevailing mode.
	if mode != fs.st.Mode {
		if mode != DirectContact && c.pinEnforcedLocked(groupID, fs, member) {
			return dec, fmt.Errorf("%w: %q policy is pinned by the chair", ErrNotChair, groupID)
		}
		if cur, ok := PolicyFor(fs.st.Mode); ok {
			if gate, ok := cur.(ModeGate); ok {
				if gerr := gate.AllowModeChange(c.registry, &fs.st, req); gerr != nil {
					return dec, gerr
				}
			}
		}
	}
	// Step 3: Media-Suspend in the degraded regime.
	if lvl == resource.Degraded {
		if victim, ok := c.suspendLowestLocked(groupID, fs); ok {
			dec.Suspended = append(dec.Suspended, victim)
		}
	}
	// Step 4: mode rules, delegated to the policy. A policy only ever
	// enqueues or dequeues the requester, so mode, holder, queue length
	// and the requester's slot tell whether it moved anything. A Direct
	// Contact grant is never a repeat: it (re)opens a private window.
	wasMode, wasHolder, wasLen, wasPos := fs.st.Mode, fs.st.Holder, len(fs.st.Queue), fs.st.queuePosition(member)
	pdec, err := pol.Decide(c.registry, &fs.st, req)
	pdec.Mode = mode
	pdec.Level = lvl
	pdec.Suspended = dec.Suspended
	pdec.Unchanged = (wasHolder == member || wasPos > 0) && mode != DirectContact &&
		fs.st.Mode == wasMode && fs.st.Holder == wasHolder &&
		len(fs.st.Queue) == wasLen && fs.st.queuePosition(member) == wasPos
	return pdec, err
}

// suspendLowestLocked implements Media-Suspend: choose the not-yet-
// suspended member of the group with the lowest priority and suspend
// their media. Reports the victim, or false when everyone is suspended.
func (c *Controller) suspendLowestLocked(groupID string, fs *floorState) (group.MemberID, bool) {
	members, err := c.registry.GroupMembers(groupID)
	if err != nil {
		return "", false
	}
	best := -1
	var victim group.MemberID
	for _, m := range members {
		if fs.suspended[m.ID] {
			continue
		}
		if best == -1 || m.Priority < best {
			best = m.Priority
			victim = m.ID
		}
	}
	if best == -1 {
		return "", false
	}
	fs.suspended[victim] = true
	return victim, true
}

// Release gives up the floor under the group's current policy; in the
// token modes the floor passes to the next eligible queued member. It
// returns the new holder ("" when the floor is now free).
func (c *Controller) Release(groupID string, member group.MemberID) (group.MemberID, error) {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	pol, err := c.policyOf(fs)
	if err != nil {
		return fs.st.Holder, err
	}
	return pol.Release(c.registry, &fs.st, member)
}

// Pass hands the floor token from its holder directly to another member
// ("until the floor control token passed by the holder"), under the
// group's current policy.
func (c *Controller) Pass(groupID string, from, to group.MemberID) error {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	pol, err := c.policyOf(fs)
	if err != nil {
		return err
	}
	return pol.Pass(c.registry, &fs.st, from, to)
}

// Approve lets the session chair clear a queued request in a moderated
// mode. It fails with ErrNoApproval when the group's current policy has
// no approval seam.
func (c *Controller) Approve(groupID string, approver, member group.MemberID) (Decision, error) {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	pol, err := c.policyOf(fs)
	if err != nil {
		return Decision{}, err
	}
	appr, ok := pol.(Approver)
	if !ok {
		return Decision{}, fmt.Errorf("%w: %v", ErrNoApproval, fs.st.Mode)
	}
	wasApproved := fs.st.Approved[member]
	dec, err := appr.Approve(c.registry, &fs.st, groupID, approver, member)
	dec.Mode = fs.st.Mode
	dec.Level = c.level()
	dec.Unchanged = wasApproved && !dec.Granted
	return dec, err
}

// SwitchMode sets the group's floor mode explicitly, without running an
// arbitration. The switch passes the same gates as mode entry through
// Arbitrate — a pinned group only obeys its session chair, and the
// outgoing policy's ModeGate may veto — and then resets the floor:
// holder, queue and approvals clear, so the new mode starts from an
// empty room. Pin (chair only) records the chair-pinned policy; every
// chair switch rewrites the flag, so a chair switching without pin also
// unpins. It returns the group's resulting mode and whether the mode
// (and with it the floor state) actually changed — a same-mode call is
// a pin update only, and callers must not announce a floor reset that
// never happened.
func (c *Controller) SwitchMode(groupID string, member group.MemberID, mode Mode, pin bool) (Mode, bool, error) {
	if _, ok := PolicyFor(mode); !ok {
		return 0, false, fmt.Errorf("%w: unknown mode %d", ErrAborted, int(mode))
	}
	if !c.registry.IsMember(groupID, member) {
		return 0, false, fmt.Errorf("%w: %q in %q (%w)", ErrNotMember, member, groupID, ErrAborted)
	}
	requester, err := c.registry.Member(member)
	if err != nil {
		return 0, false, fmt.Errorf("%w: %v", ErrAborted, err)
	}
	chair, _ := c.registry.Chair(groupID)
	isChair := member == chair

	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if c.pinEnforcedLocked(groupID, fs, member) {
		return fs.st.Mode, false, fmt.Errorf("%w: %q policy is pinned by the chair", ErrNotChair, groupID)
	}
	if pin && !isChair {
		return fs.st.Mode, false, fmt.Errorf("%w: only chair %q may pin %q", ErrNotChair, chair, groupID)
	}
	changed := mode != fs.st.Mode
	if changed {
		if cur, ok := PolicyFor(fs.st.Mode); ok {
			if gate, ok := cur.(ModeGate); ok {
				req := Request{Group: groupID, Mode: mode, Requester: requester, Level: c.level()}
				if gerr := gate.AllowModeChange(c.registry, &fs.st, req); gerr != nil {
					return fs.st.Mode, false, gerr
				}
			}
		}
		fs.st.Mode = mode
		fs.st.Holder = ""
		fs.st.Queue = nil
		fs.st.Approved = make(map[group.MemberID]bool)
	}
	if isChair {
		fs.pinned = pin
	}
	return fs.st.Mode, changed, nil
}

// Evict removes a member from a group's floor bookkeeping entirely —
// queue slot, chair approval, direct contacts, suspension — and, when
// they hold the floor, releases it under the group's policy (promoting
// the next eligible queued member in the token modes). The server calls
// it when a member is reaped from the directory; a regular leave keeps
// floor state, matching the paper's persistent red-light semantics. It
// reports whether the member held the floor or occupied a queue slot
// (the cases that shift other members).
func (c *Controller) Evict(groupID string, member group.MemberID) (wasHolder, wasQueued bool) {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := &fs.st
	for i, q := range st.Queue {
		if q == member {
			st.Queue = append(st.Queue[:i], st.Queue[i+1:]...)
			wasQueued = true
			break
		}
	}
	delete(st.Approved, member)
	delete(fs.suspended, member)
	if peer := st.Contacts[member]; peer != "" {
		delete(st.Contacts, member)
		if st.Contacts[peer] == member {
			delete(st.Contacts, peer)
		}
	}
	if st.Holder == member {
		wasHolder = true
		if pol, err := c.policyOf(fs); err == nil {
			_, _ = pol.Release(c.registry, st, member)
		}
		// A policy's release may have re-queued the releaser (RoundRobin
		// rotates it to the tail); eviction means gone, so scrub again.
		st.dequeue(member)
		if st.Holder == member {
			// The policy declined (or had no release semantics for this
			// mode); the seat must not stay with a reaped member.
			st.Holder = ""
		}
	}
	return wasHolder, wasQueued
}

// pinEnforcedLocked reports whether the group's pin blocks a mode
// change by member. The pin binds only while its chair is still in the
// group: a chair who leaves would otherwise lock the group into its
// mode forever (the registry never reassigns the chair seat), so an
// orphaned pin lapses — and resumes if the chair rejoins. Requires
// fs.mu.
func (c *Controller) pinEnforcedLocked(groupID string, fs *floorState, member group.MemberID) bool {
	if !fs.pinned {
		return false
	}
	chair, err := c.registry.Chair(groupID)
	if err != nil || member == chair {
		return false
	}
	return c.registry.IsMember(groupID, chair)
}

// Holder returns the current token holder ("" when free).
func (c *Controller) Holder(groupID string) group.MemberID {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.st.Holder
}

// Queue returns a copy of the pending floor requests, in order.
func (c *Controller) Queue(groupID string) []group.MemberID {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]group.MemberID(nil), fs.st.Queue...)
}

// ModeOf returns the group's current floor mode (FreeAccess by default).
func (c *Controller) ModeOf(groupID string) Mode {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.st.Mode
}

// ContactPeer returns the member's Direct Contact peer ("" when none).
func (c *Controller) ContactPeer(groupID string, member group.MemberID) group.MemberID {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.st.Contacts[member]
}

// EndContact tears down a direct-contact pair (idempotent).
func (c *Controller) EndContact(groupID string, member group.MemberID) {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := &fs.st
	peer := st.Contacts[member]
	delete(st.Contacts, member)
	if peer != "" && st.Contacts[peer] == member {
		delete(st.Contacts, peer)
	}
}

// MediaAvailable reports the Z spec's Media-Available(G, M): whether the
// member's media are currently granted (not suspended).
func (c *Controller) MediaAvailable(groupID string, member group.MemberID) bool {
	if !c.registry.IsMember(groupID, member) {
		return false
	}
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return !fs.suspended[member]
}

// Reinstate lifts all suspensions in a group — the server calls it when
// the resource level returns to Normal.
func (c *Controller) Reinstate(groupID string) {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.suspended = make(map[group.MemberID]bool)
}

package floor

import (
	"fmt"

	"dmps/internal/group"
)

// roundRobinPolicy implements Round Robin: Equal Control's token
// discipline, except that a release with contenders waiting re-enqueues
// the releasing holder at the tail. Contenders who keep releasing take
// turns in arrival order forever, without re-requesting — the floor
// rotates through the room, which is what a lecture Q&A or a swarm of
// equally impatient load-generator members wants. A holder who leaves
// the rotation simply stops releasing into a non-empty queue (or is
// evicted, which uses tokenSemantics-style promotion without
// re-enqueueing).
//
// It is the first policy registered through the RegisterPolicy seam
// after the builtins, and doubles as the conformance witness that the
// seam supports modes the paper never named.
type roundRobinPolicy struct{ tokenSemantics }

func (roundRobinPolicy) Mode() Mode { return RoundRobin }

func (roundRobinPolicy) Decide(_ Roster, st *State, req Request) (Decision, error) {
	if err := checkTokenPriority(req.Requester); err != nil {
		return Decision{}, err
	}
	st.Mode = RoundRobin
	member := req.Requester.ID
	if st.Holder == "" || st.Holder == member {
		// A request left queued from an earlier mode is served here.
		st.Holder = member
		st.dequeue(member)
		return Decision{Granted: true, Holder: member}, nil
	}
	pos := st.enqueue(member)
	dec := Decision{Holder: st.Holder, QueuePosition: pos}
	return dec, fmt.Errorf("%w: position %d", ErrBusy, pos)
}

// Release promotes the FIFO queue head like the other token modes, then
// re-enqueues the releaser at the tail — the rotation step. An empty
// queue frees the floor outright: a lone holder releasing does not
// immediately re-grant themself.
func (roundRobinPolicy) Release(_ Roster, st *State, member group.MemberID) (group.MemberID, error) {
	if st.Holder != member {
		return st.Holder, fmt.Errorf("%w: holder is %q", ErrNotHolder, st.Holder)
	}
	if len(st.Queue) == 0 {
		st.Holder = ""
		return "", nil
	}
	st.Holder = st.Queue[0]
	st.Queue = st.Queue[1:]
	delete(st.Approved, st.Holder)
	st.enqueue(member)
	return st.Holder, nil
}

func init() {
	mustRegister("round-robin", roundRobinPolicy{})
}

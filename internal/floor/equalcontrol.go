package floor

import "fmt"

// equalControlPolicy implements Equal Control: exactly one member
// delivers at a time, holding the floor token until they release it or
// pass it; contenders queue FIFO.
type equalControlPolicy struct{ tokenSemantics }

func (equalControlPolicy) Mode() Mode { return EqualControl }

func (equalControlPolicy) Decide(_ Roster, st *State, req Request) (Decision, error) {
	if err := checkTokenPriority(req.Requester); err != nil {
		return Decision{}, err
	}
	st.Mode = EqualControl
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

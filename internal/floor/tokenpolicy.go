package floor

import (
	"fmt"

	"dmps/internal/group"
)

// tokenSemantics is the shared release/pass behavior of the
// builtin policies: release promotes the FIFO queue head; pass hands the
// token directly to an eligible member ("until the floor control token
// passed by the holder"), removing them from the queue if queued.
type tokenSemantics struct{}

func (tokenSemantics) Release(_ Roster, st *State, member group.MemberID) (group.MemberID, error) {
	if st.Holder != member {
		return st.Holder, fmt.Errorf("%w: holder is %q", ErrNotHolder, st.Holder)
	}
	if len(st.Queue) > 0 {
		st.Holder = st.Queue[0]
		st.Queue = st.Queue[1:]
		delete(st.Approved, st.Holder)
	} else {
		st.Holder = ""
	}
	return st.Holder, nil
}

func (tokenSemantics) Pass(r Roster, st *State, from, to group.MemberID) error {
	if err := checkRecipient(r, st, to); err != nil {
		return err
	}
	if st.Holder != from {
		return fmt.Errorf("%w: holder is %q", ErrNotHolder, st.Holder)
	}
	st.Holder = to
	st.dequeue(to)
	return nil
}

// checkRecipient validates a pass recipient: a group member with token
// priority. The group is recorded on the state via the policy call site.
func checkRecipient(r Roster, st *State, to group.MemberID) error {
	if !r.IsMember(st.Group, to) {
		return fmt.Errorf("%w: recipient %q not in %q", ErrNotMember, to, st.Group)
	}
	recipient, err := r.Member(to)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrAborted, err)
	}
	if recipient.Priority < MinTokenPriority {
		return fmt.Errorf("%w: recipient priority %d < %d", ErrPriority, recipient.Priority, MinTokenPriority)
	}
	return nil
}

// checkTokenPriority enforces the Z spec's Priority ≥ 2 requirement for
// the token-based modes.
func checkTokenPriority(m group.Member) error {
	if m.Priority < MinTokenPriority {
		return fmt.Errorf("%w: %d < %d", ErrPriority, m.Priority, MinTokenPriority)
	}
	return nil
}

package floor

import "dmps/internal/group"

// Capability is what a member may do through the DMPS communication
// window in a given floor state — the affordances visible in the paper's
// Figure 2 (teacher vs student windows).
type Capability struct {
	// MessageWindow: may send to the shared message window.
	MessageWindow bool
	// Whiteboard: may draw/annotate on the shared whiteboard.
	Whiteboard bool
	// PrivateWindow: may send in a private (direct-contact) window.
	PrivateWindow bool
	// PassToken: may pass the Equal Control floor token.
	PassToken bool
	// Invite: may invite members into a sub-group.
	Invite bool
}

// CapabilityFor computes the capability matrix entry for a member under
// the group's current floor state:
//
//   - Free Access: everyone sends to the message window and whiteboard
//     ("like general discussion with no privacy and priority").
//   - Equal Control (and Round Robin, its rotating form): only the
//     token holder delivers; the holder may pass the token.
//   - Group Discussion: every sub-group member sends; the sub-group chair
//     (its creator) may invite more members. "All participants in the
//     same group can send message together."
//   - Direct Contact: members of a contact pair get the private window,
//     usable concurrently with the other modes.
//   - Moderated Queue: only the approved holder delivers, but the chair
//     (the moderator) always keeps the message window and whiteboard.
func (c *Controller) CapabilityFor(groupID string, member group.MemberID) Capability {
	if !c.registry.IsMember(groupID, member) {
		return Capability{}
	}
	chair, _ := c.registry.Chair(groupID)
	fs := c.state(groupID)
	fs.mu.Lock()
	mode := fs.st.Mode
	holder := fs.st.Holder
	_, inContact := fs.st.Contacts[member]
	fs.mu.Unlock()

	var cap Capability
	switch mode {
	case EqualControl, RoundRobin:
		isHolder := holder == member
		cap.MessageWindow = isHolder
		cap.Whiteboard = isHolder
		cap.PassToken = isHolder
	case ModeratedQueue:
		deliver := holder == member || member == chair
		cap.MessageWindow = deliver
		cap.Whiteboard = deliver
		cap.PassToken = holder == member
	case GroupDiscussion:
		cap.MessageWindow = true
		cap.Whiteboard = true
		cap.Invite = member == chair
	default: // FreeAccess (and any unset state defaults to it)
		cap.MessageWindow = true
		cap.Whiteboard = true
	}
	// Direct contact composes with every mode.
	cap.PrivateWindow = inContact
	// The session chair may always invite (create sub-groups).
	if member == chair {
		cap.Invite = true
	}
	return cap
}

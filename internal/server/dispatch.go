package server

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/protocol"
	"dmps/internal/trace"
	"dmps/internal/whiteboard"
)

// dispatch routes one decoded client message. In cluster mode a
// group-scoped request for a partition this node does not serve is
// intercepted first and answered with the typed node_moved redirect.
func (s *Server) dispatch(sess *session, msg protocol.Message) {
	if s.clusterGroupGate(sess, msg) {
		return
	}
	switch msg.Type {
	case protocol.TJoin:
		s.onJoin(sess, msg)
	case protocol.TCreateGroup:
		s.onCreateGroup(sess, msg)
	case protocol.TLeave:
		s.onLeave(sess, msg)
	case protocol.TFloorRequest:
		s.onFloorRequest(sess, msg)
	case protocol.TFloorRelease:
		s.onFloorRelease(sess, msg)
	case protocol.TTokenPass:
		s.onTokenPass(sess, msg)
	case protocol.TFloorApprove:
		s.onFloorApprove(sess, msg)
	case protocol.TInvite:
		s.onInvite(sess, msg)
	case protocol.TInviteReply:
		s.onInviteReply(sess, msg)
	case protocol.TChat:
		s.onChat(sess, msg)
	case protocol.TAnnotate:
		s.onAnnotate(sess, msg)
	case protocol.TReplay:
		s.onReplay(sess, msg)
	case protocol.TBackfill:
		s.onBackfill(sess, msg)
	case protocol.TModeSwitch:
		s.onModeSwitch(sess, msg)
	case protocol.TSubscribe:
		s.onSubscribe(sess, msg)
	case protocol.TClockSync:
		s.onClockSync(sess, msg)
	case protocol.TStatusReport:
		// touch already happened in the read loop; ack not needed.
	case protocol.TPresent:
		s.onPresent(sess, msg)
	case protocol.TMediaUnit:
		s.onMediaUnit(sess, msg)
	default:
		s.replyErr(sess, msg.Seq, "unknown_type", fmt.Errorf("server: unhandled %q", msg.Type))
	}
}

// validGroupID rejects group names that would collide with the event-
// log plane's reserved member-log keyspace ("~member").
func validGroupID(id string) error {
	if strings.HasPrefix(id, "~") {
		return fmt.Errorf("server: group %q: names starting with '~' are reserved", id)
	}
	return nil
}

// onJoin joins (auto-creating) a group: the paper's "user need to initial
// the group first" — the first joiner becomes the session chair.
func (s *Server) onJoin(sess *session, msg protocol.Message) {
	var body protocol.GroupBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	if err := validGroupID(body.Group); err != nil {
		s.replyErr(sess, msg.Seq, "join", err)
		return
	}
	err := s.registry.Join(body.Group, sess.member.ID)
	if errors.Is(err, group.ErrUnknownGroup) {
		// Another first join may create the group in between: join that.
		if err = s.registry.CreateGroup(body.Group, sess.member.ID); errors.Is(err, group.ErrDuplicate) {
			err = s.registry.Join(body.Group, sess.member.ID)
		}
	}
	if err != nil {
		s.replyErr(sess, msg.Seq, "join", err)
		return
	}
	s.persist(body.Group)
	// One snapshot converges the late joiner: board history, floor
	// state, suspensions, and the log position live events continue from.
	// It goes ahead of the ack, so a Join returns with the group's state
	// already applied. Everyone else sees the join in the next probe
	// tick's lights push.
	s.sendSnapshot(sess, body.Group, 0)
	s.replyAck(sess, msg.Seq, protocol.GroupBody{Group: body.Group})
}

func (s *Server) onCreateGroup(sess *session, msg protocol.Message) {
	var body protocol.GroupBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	if err := validGroupID(body.Group); err != nil {
		s.replyErr(sess, msg.Seq, "create_group", err)
		return
	}
	if err := s.registry.CreateGroup(body.Group, sess.member.ID); err != nil {
		s.replyErr(sess, msg.Seq, "create_group", err)
		return
	}
	s.persist(body.Group)
	s.replyAck(sess, msg.Seq, protocol.GroupBody{Group: body.Group})
}

func (s *Server) onLeave(sess *session, msg protocol.Message) {
	var body protocol.GroupBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	if err := s.registry.Leave(body.Group, sess.member.ID); err != nil {
		s.replyErr(sess, msg.Seq, "leave", err)
		return
	}
	s.persist(body.Group)
	s.replyAck(sess, msg.Seq, protocol.GroupBody{Group: body.Group})
}

// onFloorRequest runs FCM-Arbitrate inside the group log's append and
// reports the decision once its event is out. Every request is
// centralized here, per the paper.
func (s *Server) onFloorRequest(sess *session, msg protocol.Message) {
	var body protocol.FloorRequestBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	mode, ok := floor.ParseMode(body.Mode)
	if !ok {
		s.replyErr(sess, msg.Seq, "bad_mode", fmt.Errorf("server: unknown mode %q", body.Mode))
		return
	}
	tc := traceOf(msg)
	var dec floor.Decision
	var err error
	s.logFloorEvent(msg.Group, mode != floor.DirectContact, tc, func() (protocol.FloorEventBody, bool) {
		var t0 time.Time
		if tc.sampled() {
			t0 = time.Now()
		}
		dec, err = s.floorCtl.Arbitrate(msg.Group, sess.member.ID, mode, group.MemberID(body.Target))
		if tc.sampled() {
			s.plane.Span(tc.id, msg.TraceParent, trace.StageArbitrate, t0)
		}
		// A queued request is not a failure: the queue is group state, so
		// the queueing logs (and is backfillable) like any other
		// transition. The broadcast form is redacted (queue length only);
		// the requester's copy is personalized with their slot.
		event := "granted"
		if errors.Is(err, floor.ErrBusy) {
			event = "queued"
		}
		return protocol.FloorEventBody{
			Mode:   mode.String(),
			Holder: string(dec.Holder),
			Member: string(sess.member.ID),
			Event:  event,
		}, (err == nil || event == "queued") && !dec.Unchanged
	})
	// A request can have Media-Suspended someone in the degraded regime,
	// a denied one included — the victim must hear about it either way.
	s.notifySuspensions(msg.Group, dec, tc)
	decision := decisionBody(dec)
	if errors.Is(err, floor.ErrBusy) {
		decision.Reason = err.Error()
	} else if err != nil {
		// Push the denial to the requester's event stream too, so
		// Subscribe sees every outcome, not just grants and queueing. A
		// denial changes no group state, so it stays requester-directed
		// and unlogged — sendReliable means it cannot be dropped either.
		// dec.Holder (not a Holder() lookup, which would create floor
		// state for arbitrary group names on a pure-deny path): denials
		// carry no holder claim.
		denied := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{
			Mode:   mode.String(),
			Holder: string(dec.Holder),
			Member: string(sess.member.ID),
			Event:  "denied",
		})
		denied.Group = msg.Group
		s.sendReliable(sess, denied)
		s.replyErr(sess, msg.Seq, "floor_denied", err)
		return
	}
	// A repeat request logs nothing and is acked with the decision as it
	// stands.
	s.replyAck(sess, msg.Seq, decision)
}

// onSubscribe replaces the session's event-class mask: logged events of
// classes outside it stop reaching this session's queue, and the heads
// digest is filtered to match — the class filter runs server-side, so
// an unsubscribed class costs the client zero bytes under churn. The
// initial mask arrives with the hello (HelloBody.Classes); widening it
// later converges like a late join: the first event of a newly wanted
// class either continues the client's cursor, is a state-bearing
// restatement it jumps onto, or triggers a backfill.
func (s *Server) onSubscribe(sess *session, msg protocol.Message) {
	var body protocol.SubscribeBody
	if len(msg.Body) > 0 {
		if err := msg.Into(&body); err != nil {
			s.replyErr(sess, msg.Seq, "bad_body", err)
			return
		}
	}
	sess.classes.Store(classSet(body.Classes))
	// Fire-and-forget widenings (Subscribe's automatic mask growth)
	// carry no Seq and want no ack; explicit SetEventClasses does.
	if msg.Seq != 0 {
		s.replyAck(sess, msg.Seq, protocol.SubscribeBody{Classes: body.Classes})
	}
}

// onModeSwitch sets the group's floor mode explicitly. The controller
// enforces the chair-pinned policy (a pinned group only obeys its
// chair, and only the chair may pin) and the outgoing policy's exit
// gate; a successful switch resets the floor and is logged to the
// group's event stream as a "mode_switch".
func (s *Server) onModeSwitch(sess *session, msg protocol.Message) {
	var body protocol.ModeSwitchBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	mode, ok := floor.ParseMode(body.Mode)
	if !ok {
		s.replyErr(sess, msg.Seq, "bad_mode", fmt.Errorf("server: unknown mode %q", body.Mode))
		return
	}
	var newMode floor.Mode
	var err error
	s.logFloorEvent(msg.Group, true, traceOf(msg), func() (protocol.FloorEventBody, bool) {
		var changed bool
		newMode, changed, err = s.floorCtl.SwitchMode(msg.Group, sess.member.ID, mode, body.Pin)
		// A same-mode call only updates the pin: nothing about the floor
		// changed, so logging it would make every client wrongly clear
		// its cached holder and queue position.
		return protocol.FloorEventBody{Member: string(sess.member.ID), Event: "mode_switch"}, err == nil && changed
	})
	if err != nil {
		s.replyErr(sess, msg.Seq, "mode_switch", err)
		return
	}
	s.replyAck(sess, msg.Seq, protocol.FloorEventBody{
		Mode:   newMode.String(),
		Member: string(sess.member.ID),
		Event:  "mode_switch",
	})
}

// onFloorApprove clears a queued request in a moderated mode: the chair
// names the member; if the floor is free the member is granted at once,
// otherwise they are marked approved and promoted on the next release.
func (s *Server) onFloorApprove(sess *session, msg protocol.Message) {
	var body protocol.FloorApproveBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	member := group.MemberID(body.Member)
	var dec floor.Decision
	var err error
	s.logFloorEvent(msg.Group, true, traceOf(msg), func() (protocol.FloorEventBody, bool) {
		dec, err = s.floorCtl.Approve(msg.Group, sess.member.ID, member)
		event := "approved"
		if dec.Granted {
			event = "granted"
		}
		return protocol.FloorEventBody{Member: string(member), Event: event}, err == nil && !dec.Unchanged
	})
	if err != nil {
		s.replyErr(sess, msg.Seq, "approve", err)
		return
	}
	s.replyAck(sess, msg.Seq, decisionBody(dec))
}

// notifySuspensions tells each Media-Suspend victim and the group. The
// notice is logged and state-bearing — it restates the whole suspended
// set — so a recipient whose queue dropped it converges from the next
// suspend-class event or the snapshot reconciliation.
func (s *Server) notifySuspensions(groupID string, dec floor.Decision, tc traceCtx) {
	for _, victim := range dec.Suspended {
		s.logSuspend(groupID, protocol.TSuspend, string(victim), dec.Level, tc)
	}
}

func (s *Server) onFloorRelease(sess *session, msg protocol.Message) {
	var next group.MemberID
	var err error
	s.logFloorEvent(msg.Group, true, traceOf(msg), func() (protocol.FloorEventBody, bool) {
		next, err = s.floorCtl.Release(msg.Group, sess.member.ID)
		return protocol.FloorEventBody{Member: string(sess.member.ID), Event: "released"}, err == nil
	})
	if err != nil {
		s.replyErr(sess, msg.Seq, "release", err)
		return
	}
	s.replyAck(sess, msg.Seq, protocol.FloorEventBody{Holder: string(next), Event: "released"})
}

func (s *Server) onTokenPass(sess *session, msg protocol.Message) {
	var body protocol.TokenPassBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	var err error
	s.logFloorEvent(msg.Group, true, traceOf(msg), func() (protocol.FloorEventBody, bool) {
		err = s.floorCtl.Pass(msg.Group, sess.member.ID, group.MemberID(body.To))
		return protocol.FloorEventBody{Member: string(sess.member.ID), Event: "passed"}, err == nil
	})
	if err != nil {
		s.replyErr(sess, msg.Seq, "pass", err)
		return
	}
	s.replyAck(sess, msg.Seq, protocol.FloorEventBody{Holder: body.To, Event: "passed"})
}

func (s *Server) onInvite(sess *session, msg protocol.Message) {
	var body protocol.InviteBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	to := group.MemberID(body.To)
	invite := s.registry.Invite
	if s.cluster != nil && !s.homesMember(to) {
		// Cross-partition invitation: the invitee's directory row lives
		// on their home node, not here, so the record is created without
		// the local existence check — no fabricated (and unreapable)
		// directory row. The home node validates existence at delivery;
		// an accepted invite registers the member properly when their
		// node-scoped session opens.
		invite = s.registry.InviteRemote
	}
	inv, err := invite(body.Group, sess.member.ID, to)
	if err != nil {
		s.replyErr(sess, msg.Seq, "invite", err)
		return
	}
	s.replyAck(sess, msg.Seq, protocol.InviteEventBody{InviteID: inv.ID, Group: inv.Group, From: string(inv.From)})
	note := protocol.MustNew(protocol.TInviteEvent, protocol.InviteEventBody{
		InviteID: inv.ID, Group: inv.Group, From: string(inv.From),
	})
	traceOf(msg).stamp(&note)
	// Member-directed state: logged in the invitee's own event log — on
	// their home node, across a typed forward if that is another process
	// — so a drop (or an offline invitee) is repaired through backfill.
	s.deliverMemberEvent(inv.To, note)
}

func (s *Server) onInviteReply(sess *session, msg protocol.Message) {
	var body protocol.InviteReplyBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	inv, err := s.registry.Respond(body.InviteID, sess.member.ID, body.Accept)
	if err != nil {
		s.replyErr(sess, msg.Seq, "invite_reply", err)
		return
	}
	accepted := inv.Status == group.Accepted
	if accepted {
		s.persist(inv.Group)
	}
	s.replyAck(sess, msg.Seq, protocol.InviteEventBody{InviteID: inv.ID, Group: inv.Group, From: string(inv.From)})
	// Tell the inviter the outcome.
	outcome := "declined"
	if accepted {
		outcome = "accepted"
		// One snapshot converges the new member on the sub-group.
		s.sendSnapshot(sess, inv.Group, 0)
	}
	note := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{
		Member: string(inv.To),
		Event:  "invite_" + outcome,
	})
	note.Group = inv.Group
	s.sendTo(inv.From, note)
}

// onChat posts to the message window, enforcing the capability matrix
// and Media-Suspend, and routes per the floor mode: private windows
// (msg.To set) go only to the contact peer; otherwise the group sees it.
func (s *Server) onChat(sess *session, msg protocol.Message) {
	var body protocol.ChatBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	if !s.floorCtl.MediaAvailable(msg.Group, sess.member.ID) {
		s.replyErr(sess, msg.Seq, "suspended", fmt.Errorf("server: media suspended for %s", sess.member.ID))
		return
	}
	if msg.To != "" {
		// Direct-contact private window.
		peer := s.floorCtl.ContactPeer(msg.Group, sess.member.ID)
		if string(peer) != msg.To {
			s.replyErr(sess, msg.Seq, "no_contact", fmt.Errorf("server: no direct contact with %q", msg.To))
			return
		}
		event := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
			Author: string(sess.member.ID), Kind: "private", Data: body.Text,
		})
		event.Group = msg.Group
		event.From = string(sess.member.ID)
		event.To = msg.To
		s.sendTo(peer, event)
		s.replyAck(sess, msg.Seq, protocol.SequencedBody{Author: string(sess.member.ID), Kind: "private", Data: body.Text})
		return
	}
	if !s.floorCtl.CapabilityFor(msg.Group, sess.member.ID).MessageWindow {
		s.replyErr(sess, msg.Seq, "no_floor", fmt.Errorf("server: %s may not send in %v mode", sess.member.ID, s.floorCtl.ModeOf(msg.Group)))
		return
	}
	if err := checkBoardOp(string(sess.member.ID), "text", body.Text); err != nil {
		s.replyErr(sess, msg.Seq, "too_large", err)
		return
	}
	gb := s.board(msg.Group)
	gb.mu.Lock()
	op, err := gb.board.Append(string(sess.member.ID), whiteboard.Text, body.Text)
	if err != nil {
		gb.mu.Unlock()
		s.replyErr(sess, msg.Seq, "board", err)
		return
	}
	// The broadcast is paced: a line inside the group's pacing slot
	// joins the open batch, whoever wrote it; a slower stream logs
	// inline (leading edge).
	s.enqueueBoardOp(msg.Group, gb, op, "text", protocol.TChatEvent)
	gb.mu.Unlock()
	s.replyAck(sess, msg.Seq, protocol.SequencedBody{Seq: op.Seq, Author: op.Author, Kind: "text", Data: op.Data})
}

func (s *Server) onAnnotate(sess *session, msg protocol.Message) {
	var body protocol.AnnotateBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	if !s.floorCtl.MediaAvailable(msg.Group, sess.member.ID) {
		s.replyErr(sess, msg.Seq, "suspended", fmt.Errorf("server: media suspended for %s", sess.member.ID))
		return
	}
	if !s.floorCtl.CapabilityFor(msg.Group, sess.member.ID).Whiteboard {
		s.replyErr(sess, msg.Seq, "no_floor", fmt.Errorf("server: %s may not annotate in %v mode", sess.member.ID, s.floorCtl.ModeOf(msg.Group)))
		return
	}
	kind, ok := whiteboard.ParseOpKind(body.Kind)
	if !ok {
		s.replyErr(sess, msg.Seq, "bad_kind", fmt.Errorf("server: unknown op kind %q", body.Kind))
		return
	}
	if err := checkBoardOp(string(sess.member.ID), body.Kind, body.Data); err != nil {
		s.replyErr(sess, msg.Seq, "too_large", err)
		return
	}
	gb := s.board(msg.Group)
	gb.mu.Lock()
	op, err := gb.board.Append(string(sess.member.ID), kind, body.Data)
	if err != nil {
		gb.mu.Unlock()
		s.replyErr(sess, msg.Seq, "board", err)
		return
	}
	// An annotation storm coalesces into paced events of up to
	// boardBatchMax operations, any authors' alike; the authoritative
	// append above is immediate either way, and an idle board logs
	// inline.
	s.enqueueBoardOp(msg.Group, gb, op, body.Kind, protocol.TAnnotateEvent)
	gb.mu.Unlock()
	s.replyAck(sess, msg.Seq, protocol.SequencedBody{Seq: op.Seq, Author: op.Author, Kind: body.Kind, Data: op.Data})
}

// onReplay answers the legacy explicit-replay request with a snapshot
// carrying the board suffix after the given sequence number — the same
// convergence payload late joiners and wrapped backfills use. Boards
// are group-private (the breakout isolation of Figure 2): only members
// may replay.
func (s *Server) onReplay(sess *session, msg protocol.Message) {
	var body protocol.ReplayBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	if !s.registry.IsMember(msg.Group, sess.member.ID) {
		s.replyErr(sess, msg.Seq, "not_member", fmt.Errorf("server: %s not in %q", sess.member.ID, msg.Group))
		return
	}
	s.sendSnapshot(sess, msg.Group, body.After)
	s.replyAck(sess, msg.Seq, protocol.ReplayBody{After: body.After})
}

// onClockSync answers a Cristian exchange with the master time.
func (s *Server) onClockSync(sess *session, msg protocol.Message) {
	var body protocol.ClockSyncBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	body.MasterNanos = protocol.Nanos(s.master.GlobalNow())
	reply := protocol.MustNew(protocol.TClockSync, body)
	reply.Seq = msg.Seq
	s.sendReliable(sess, reply)
}

// onPresent broadcasts a presentation start to the group. Only the
// session chair may start one.
func (s *Server) onPresent(sess *session, msg protocol.Message) {
	chair, err := s.registry.Chair(msg.Group)
	if err != nil {
		s.replyErr(sess, msg.Seq, "present", err)
		return
	}
	if chair != sess.member.ID {
		s.replyErr(sess, msg.Seq, "present", fmt.Errorf("server: only the chair starts presentations"))
		return
	}
	var body protocol.PresentBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}
	s.replyAck(sess, msg.Seq, body)
	event := protocol.MustNew(protocol.TPresent, body)
	event.Group = msg.Group
	s.broadcastGroup(msg.Group, event)
}

// onMediaUnit relays a streamed media unit to the group, gated by the
// floor: the sender needs the message-window capability (the "deliver"
// right of the current mode) and unsuspended media. Units without a Seq
// are fire-and-forget: denials drop silently, like a muted microphone;
// units with a Seq get an explicit ack/deny.
func (s *Server) onMediaUnit(sess *session, msg protocol.Message) {
	var body protocol.MediaUnitBody
	if err := msg.Into(&body); err != nil {
		if msg.Seq != 0 {
			s.replyErr(sess, msg.Seq, "bad_body", err)
		}
		return
	}
	allowed := s.floorCtl.MediaAvailable(msg.Group, sess.member.ID) &&
		s.floorCtl.CapabilityFor(msg.Group, sess.member.ID).MessageWindow
	if !allowed {
		if msg.Seq != 0 {
			s.replyErr(sess, msg.Seq, "no_floor", fmt.Errorf("server: %s may not stream in %v mode", sess.member.ID, s.floorCtl.ModeOf(msg.Group)))
		}
		return
	}
	event := protocol.MustNew(protocol.TMediaUnit, body)
	event.Group = msg.Group
	event.From = string(sess.member.ID)
	s.broadcastGroup(msg.Group, event)
	if msg.Seq != 0 {
		s.replyAck(sess, msg.Seq, body)
	}
}

func decisionBody(dec floor.Decision) protocol.FloorDecisionBody {
	out := protocol.FloorDecisionBody{
		Granted:       dec.Granted,
		Mode:          dec.Mode.String(),
		Holder:        string(dec.Holder),
		QueuePosition: dec.QueuePosition,
		Level:         dec.Level.String(),
		Target:        string(dec.Target),
	}
	for _, m := range dec.Suspended {
		out.Suspended = append(out.Suspended, string(m))
	}
	return out
}

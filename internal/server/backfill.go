package server

import (
	"fmt"
	"slices"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/resource"
)

// onBackfill is the single repair path of the delivery plane: a client
// that saw a hole in a log's per-class CSeq stream — or learned from the
// heads digest that it is behind, or just reconnected with its
// last-seen sequence numbers — asks for the suffix past its per-class
// positions. The server re-sends the retained logged events verbatim
// (their sequence numbers already stamped), filtered to the classes the
// session subscribes to, or one compact snapshot when a needed class no
// longer connects to anything the compacted log retains. An empty Group
// names the sender's own member event log (invitations). The request is
// usually fired without a Seq from the client's read loop; it is acked
// only when one is present.
//
// Backfill sends ride the same droppable per-session queue as live
// traffic: if the suffix itself overflows the client's queue, the
// heads digest keeps showing the client behind and its next paced ask
// retries — repair never blocks a handler on a slow consumer.
func (s *Server) onBackfill(sess *session, msg protocol.Message) {
	var body protocol.BackfillBody
	if err := msg.Into(&body); err != nil {
		s.replyErr(sess, msg.Seq, "bad_body", err)
		return
	}

	if body.Group == "" {
		s.backfillMemberLog(sess, body.Afters)
	} else {
		// Logs are group-private, like the boards they carry: only
		// members may read a group's event stream.
		if !s.registry.IsMember(body.Group, sess.member.ID) {
			s.replyErr(sess, msg.Seq, "not_member", fmt.Errorf("server: %s not in %q", sess.member.ID, body.Group))
			return
		}
		s.backfillGroupLog(sess, body.Group, body.Afters, body.BoardSeq)
	}
	if msg.Seq != 0 {
		s.replyAck(sess, msg.Seq, protocol.BackfillBody{Group: body.Group, Afters: body.Afters})
	}
}

func (s *Server) backfillGroupLog(sess *session, groupID string, afters map[string]int64, boardSeq int64) {
	lg, ok := s.logs.Peek(groupID)
	if !ok {
		return
	}
	if _, complete := lg.Replay(afters, sess.wantsClass, func(wire []byte) {
		s.sendWire(sess, wire)
	}); !complete {
		s.sendSnapshot(sess, groupID, boardSeq)
		return
	}
	// Queue slots are redacted from the retained (canonical) event
	// bytes, so a replayed suffix can tell the requester the queue moved
	// but not where they now stand — worse, every replayed floor event
	// carries position 0 and would convince a still-queued requester it
	// left the queue; restate their own slot directly when they hold
	// one. The nudge is unlogged (CSeq 0) and personalized — the same
	// shape a live slot push has.
	s.nudgeQueueSlot(sess, groupID)
}

// nudgeQueueSlot sends one unlogged, personalized queue_position event
// when the session's member currently occupies a queue slot. It rides
// sendReliable: backfill runs on the requester's own handler goroutine,
// and the slot correction must not be droppable — nothing else (no
// hole, no digest mismatch) would ever flag its loss.
func (s *Server) nudgeQueueSlot(sess *session, groupID string) {
	if !sess.wantsClass(protocol.ClassFloor) {
		return
	}
	fs := s.floorCtl.Snapshot(groupID)
	pos := slices.Index(fs.Queue, sess.member.ID) + 1
	if pos == 0 {
		return
	}
	note := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{
		Mode:          fs.Mode.String(),
		Holder:        string(fs.Holder),
		Member:        string(sess.member.ID),
		Event:         "queue_position",
		QueuePosition: pos,
		QueueLen:      len(fs.Queue),
	})
	note.Group = groupID
	s.sendReliable(sess, note)
}

func (s *Server) backfillMemberLog(sess *session, afters map[string]int64) {
	lg, ok := s.logs.Peek(grouplog.MemberKey(string(sess.member.ID)))
	if !ok {
		return
	}
	heads, complete := lg.Replay(afters, sess.wantsClass, func(wire []byte) {
		s.sendWire(sess, wire)
	})
	if complete {
		return
	}
	// The invitation log was compacted past the caller: reconcile from
	// the registry's pending set instead of replaying events.
	body := protocol.SnapshotBody{Seq: lg.Head(), ClassSeqs: heads}
	for _, inv := range s.registry.PendingInvites(sess.member.ID) {
		body.Invites = append(body.Invites, protocol.InviteEventBody{
			InviteID: inv.ID, Group: inv.Group, From: string(inv.From),
		})
	}
	s.sendMsg(sess, protocol.MustNew(protocol.TSnapshot, body))
}

// sendSnapshot pushes one group's authoritative state to a session: the
// per-class log positions it covers through, the floor (mode, holder,
// the recipient's own queue slot and the public queue length, pin), the
// suspended set, and the board suffix after boardSeq. It is the
// convergence payload for late joiners (boardSeq 0 → whole board),
// explicit TReplay, and backfills whose needed classes no longer
// connect. The log heads are read before the state, so a concurrent
// transition can at worst be reflected in the state and then
// re-delivered as a live event — every snapshot field is absolute and
// every logged event idempotent, so over-delivery is harmless, whereas
// the opposite order could stamp heads whose effect the snapshot
// missed. Like live floor events, the snapshot never carries another
// member's queue slot: it is built per recipient.
func (s *Server) sendSnapshot(sess *session, groupID string, boardSeq int64) {
	lg := s.logs.Get(groupID)
	head := lg.Head()
	classSeqs := lg.ClassHeads()
	fs := s.floorCtl.Snapshot(groupID)
	level := resource.Normal
	if s.cfg.Monitor != nil {
		level = s.cfg.Monitor.Level()
	}
	body := protocol.SnapshotBody{
		Seq:       head,
		ClassSeqs: classSeqs,
		Mode:      fs.Mode.String(),
		Holder:    string(fs.Holder),
		QueuePos:  slices.Index(fs.Queue, sess.member.ID) + 1,
		QueueLen:  len(fs.Queue),
		Level:     level.String(),
		Pinned:    fs.Pinned,
	}
	for _, m := range fs.Suspended {
		body.Suspended = append(body.Suspended, string(m))
	}
	gb := s.board(groupID)
	for _, op := range gb.board.Since(boardSeq) {
		body.Board = append(body.Board, protocol.SequencedBody{
			Seq: op.Seq, Author: op.Author, Kind: op.Kind.String(), Data: op.Data,
		})
	}
	msg := protocol.MustNew(protocol.TSnapshot, body)
	msg.Group = groupID
	s.sendMsg(sess, msg)
}

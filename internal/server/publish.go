package server

import (
	"errors"
	"slices"
	"time"

	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/resource"
	"dmps/internal/trace"
)

// broadcastGroup delivers a transient (unlogged) message to every
// connected member of a group: one encode, the same wire bytes queued to
// each recipient's writer. Drops are final — state events must go
// through the publish pipeline instead.
func (s *Server) broadcastGroup(groupID string, msg protocol.Message) {
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return
	}
	for _, sess := range s.groupTargets(groupID) {
		s.sendWire(sess, wire)
	}
}

// publication says where a state event goes: which log sequences it,
// who is sent it, and what rides along.
type publication struct {
	// key names the event log (a group ID, or a "~member" key); group is
	// the Message.Group the event carries — clients key their cursors by
	// it, so it is the group ID for a group log and empty for a member
	// log.
	key, group string
	class      string
	// state marks a state-bearing event (protocol.Message.State).
	state bool
	// tc is the sampled trace of the request that caused the event.
	tc      traceCtx
	targets []*session
	// floor marks an event that changes floor state: build returns the
	// state the change left, and where there is a journal or a replica
	// it goes to them beside the event (the queue's member identities,
	// which the event's own bytes redact).
	floor bool
}

// errUnlogged is what a floor transition's build returns when it left
// nothing to log: the transition was refused (denied, not the holder,
// not a member) or repeated a request that changes nothing. The log
// stays untouched and nothing counts as a failed append.
var errUnlogged = errors.New("server: transition changed no logged state")

// publish is the one path of a logged state event, in stages: stamp
// (sequence numbers assigned by the log, the transition run), encode
// (once, whatever the group size), append (retained for backfill),
// fan-out, journal, replicate. Everything from stamp to replicate runs
// under the log's lock, so the log's order is the order of the
// transitions themselves and every consumer — sessions, WAL, replicas —
// sees it; fan-out comes first because recipients are who is waiting.
// A recipient whose queue drops the event needs no server-side
// bookkeeping: the hole in its per-class CSeq stream — or the heads
// digest riding the lights broadcast, for drops with no later event
// behind them — makes the client ask TBackfill.
//
// build runs the event's transition, if it has one, and returns the
// event in its canonical form — what the log retains and everyone
// without a personal copy receives — with, for a floor publication, the
// floor snapshot the transition left, encoded here once for the journal
// and the replicas both. An error from build leaves the log untouched. personal, when not nil, may replace the body for one
// recipient; the copy carries the canonical event's sequence numbers.
// (Both are parameters rather than fields of p so that the callers'
// closures, and what they capture, stay on the stack.)
func (s *Server) publish(p publication, build func() (protocol.Message, floor.Snapshot, error), personal func(sess *session) (body any, ok bool)) {
	sampled := p.tc.sampled()
	var a0 time.Time
	if sampled {
		a0 = time.Now()
	}
	var msg protocol.Message
	var snap []byte
	var gseq, cseq int64
	stamp := func(m *protocol.Message) {
		m.Group, m.GSeq, m.Class, m.CSeq, m.State = p.group, gseq, p.class, cseq, p.state
		p.tc.stamp(m)
	}
	_, err := s.logs.Get(p.key).Append(p.class, p.state, func(g, c int64) ([]byte, error) {
		gseq, cseq = g, c
		var fs floor.Snapshot
		var err error
		if msg, fs, err = build(); err != nil {
			return nil, err
		}
		if p.floor && (s.wal != nil || s.cluster != nil) {
			snap = fs.AppendBinary(nil)
		}
		stamp(&msg)
		var e0 time.Time
		if sampled {
			e0 = time.Now()
		}
		wire, err := protocol.EncodeBinary(msg)
		if sampled {
			s.plane.Span(p.tc.id, p.tc.id, trace.StageEncode, e0)
		}
		return wire, err
	}, func(wire []byte) {
		for _, sess := range p.targets {
			if !sess.wantsClass(p.class) {
				// Masked sessions get nothing, not even a marker — which is
				// why logged events are sequenced per class.
				sess.filtered.Add(1)
				continue
			}
			w := wire
			if personal != nil {
				if body, ok := personal(sess); ok {
					pm := protocol.MustNew(msg.Type, body)
					stamp(&pm)
					if pw, err := protocol.EncodeBinary(pm); err == nil {
						w = pw
					}
				}
			}
			s.sendWire(sess, w)
		}
		s.record(grouplog.WALRecord{
			Kind: grouplog.WALEvent, Key: p.key,
			GSeq: gseq, CSeq: cseq, Class: p.class, State: p.state, Wire: wire, Data: snap,
		}, s.replicates(p.key))
	})
	if err != nil && !errors.Is(err, errUnlogged) {
		// The event could not be encoded and the log is untouched: no
		// recipient sees it live, and nobody can repair what was never
		// sequenced, so the loss is at least counted.
		s.logAppendErrs.Add(1)
	}
	if sampled {
		s.plane.Span(p.tc.id, p.tc.id, trace.StageLogAppend, a0)
	}
}

// logBroadcast publishes a state event to a group as given (board
// events, and whatever Broadcast is handed). A type outside the logged
// classes is delivered transiently rather than corrupt the class
// sequencing.
func (s *Server) logBroadcast(groupID string, msg protocol.Message) {
	class, ok := protocol.ClassOf(msg.Type)
	if !ok {
		s.broadcastGroup(groupID, msg)
		return
	}
	s.publish(publication{
		key: groupID, group: groupID, class: class, tc: traceOf(msg), targets: s.groupTargets(groupID),
	}, func() (protocol.Message, floor.Snapshot, error) { return msg, floor.Snapshot{}, nil }, nil)
}

// logFloorEvent runs one floor transition inside the group log's append
// and publishes the event it made. The transition and its log entry are
// one step, so the log's order is the floor's order; a handler replies
// only once this returns, so every member — the actor included — has
// the event queued ahead of the actor's ack. transition returns the
// event body and whether to log it: false for a refused transition and
// for a repeat request that changed nothing, which leave the log
// untouched. It runs under the log lock and takes the floor and
// registry locks beneath it; that is the lock order, group log → floor
// state → registry. state is false only for a Direct Contact request,
// whose grant runs beside the group floor, names its own Mode and
// carries no claim on the group floor.
//
// A state-bearing event's Mode, Holder and queue length — and the floor
// snapshot the journal and replicas get — are the state read right after
// the transition, in the same append, so each entry states exactly what
// its own transition left. That is what lets these events be marked
// state-bearing: compaction keeps only the latest one, and clients may
// jump a hole onto it. Queue slots stay private: the canonical logged
// bytes carry only the queue length, and every queued member gets a
// personal copy — same sequence numbers, plus their own QueuePosition —
// so a transition that moves the queue tells each member behind it
// their new slot in the transition itself. Nobody ever receives another
// member's position, live or via backfill.
func (s *Server) logFloorEvent(groupID string, state bool, tc traceCtx, transition func() (body protocol.FloorEventBody, logged bool)) {
	var body protocol.FloorEventBody
	var queue []group.MemberID
	s.publish(publication{
		key: groupID, group: groupID, class: protocol.ClassFloor, state: state, tc: tc,
		targets: s.groupTargets(groupID), floor: true,
	}, func() (protocol.Message, floor.Snapshot, error) {
		var logged bool
		if body, logged = transition(); !logged {
			return protocol.Message{}, floor.Snapshot{}, errUnlogged
		}
		fs := s.floorCtl.Snapshot(groupID)
		if state {
			body.Mode, body.Holder, body.QueueLen = fs.Mode.String(), string(fs.Holder), len(fs.Queue)
			queue = fs.Queue
		}
		body.QueuePosition = 0 // canonical form: slots are per-recipient
		return protocol.MustNew(protocol.TFloorEvent, body), fs, nil
	}, func(sess *session) (any, bool) {
		pos := slices.Index(queue, sess.member.ID) + 1
		if pos == 0 {
			return nil, false
		}
		personal := body
		personal.QueuePosition = pos
		return personal, true
	})
}

// logSuspend publishes a Media-Suspend/Resume transition as a
// state-bearing suspend-class event: the whole suspended set is read
// inside the log lock and rides the notice, so any single suspend event
// fully restates the group's suspension state — a recipient that missed
// earlier transitions reconciles from whichever notice it sees next, and
// compaction can retain just the latest one.
func (s *Server) logSuspend(groupID string, typ protocol.Type, member string, level resource.Level, tc traceCtx) {
	s.publish(publication{
		key: groupID, group: groupID, class: protocol.ClassSuspend, state: true, tc: tc,
		targets: s.groupTargets(groupID), floor: true,
	}, func() (protocol.Message, floor.Snapshot, error) {
		fs := s.floorCtl.Snapshot(groupID)
		body := protocol.SuspendBody{Member: member, Level: level.String()}
		for _, m := range fs.Suspended {
			body.Suspended = append(body.Suspended, string(m))
		}
		return protocol.MustNew(typ, body), fs, nil
	}, nil)
}

// logSendTo publishes a member-directed state event (an invitation)
// through the member's private event log, so it enjoys the same
// drop-repair and durability as group state: logged, journaled,
// replicated to the home's successors, and backfillable.
func (s *Server) logSendTo(id group.MemberID, msg protocol.Message) {
	class, ok := protocol.ClassOf(msg.Type)
	if !ok {
		s.sendTo(id, msg)
		return
	}
	var targets []*session
	if sess, ok := s.session(id); ok {
		targets = []*session{sess}
	}
	s.publish(publication{
		key: grouplog.MemberKey(string(id)), class: class, tc: traceOf(msg), targets: targets,
	}, func() (protocol.Message, floor.Snapshot, error) { return msg, floor.Snapshot{}, nil }, nil)
}

// Broadcast delivers a server-originated message to every connected
// member of a group — announcements, and the fan-out benchmarks. State
// event types go through the log plane (append + stamp on the hot
// path); transient types fan out unlogged.
func (s *Server) Broadcast(groupID string, msg protocol.Message) {
	s.logBroadcast(groupID, msg)
}

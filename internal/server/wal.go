package server

// Write-ahead durability for a node's live planes. When Config.WALDir
// is set, every logged append and every piece of non-log serving state
// — rosters, floor blobs, member homes and tokens, board heads, the ID
// counter — is journaled to an append-only segment store
// (grouplog.WAL) before the next accept, and New replays the journal
// before listening, so a restarted node resumes with the exact
// GSeq/CSeq cursors its clients hold: a pre-crash client Reconnects
// with its token and converges through ordinary backfill, no snapshot
// needed. Non-log state is journaled as partition packages (walPackage)
// and replayed through the one install, a record at a time. Periodic
// checkpoints restate every key's package into a fresh segment and
// truncate the old ones, bounding both replay time and disk. All hooks
// are no-ops when the WAL is off (s.wal == nil), so the standalone
// in-memory server pays nothing.

import (
	"encoding/json"
	"strings"

	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/whiteboard"
)

// walMemberData is the WALMember record payload: the directory row plus
// the session-resume token that must survive a restart.
type walMemberData struct {
	Info  protocol.NodeMemberInfo `json:"info"`
	Token string                  `json:"token,omitempty"`
}

// walGroupData is the WALGroup record payload: a group's roster and
// chair, restated wholesale on every membership change.
type walGroupData struct {
	Chair   string                    `json:"chair,omitempty"`
	Members []protocol.NodeMemberInfo `json:"members,omitempty"`
}

// walAppend journals one record, best-effort: a full disk must not
// take the live service down with it — replication to the R-1 peers
// still covers the state, which is the documented durability split. A
// record the journal refused is counted
// (dmps_errors_total{site="wal_append"}).
func (s *Server) walAppend(rec grouplog.WALRecord) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Append(rec); err != nil {
		s.walAppendErrs.Add(1)
	}
}

// walEvent journals one logged append — the stamped canonical wire
// bytes plus their sequence coordinates, replayed via AppendRaw so the
// restarted log resumes at the same GSeq/CSeq. Called inside the log
// append's deliver callback (the WAL takes only its own lock).
func (s *Server) walEvent(key string, gseq, cseq int64, class string, state bool, wire []byte) {
	if s.wal == nil {
		return
	}
	rec := grouplog.WALRecord{
		Kind: grouplog.WALEvent, Key: key,
		GSeq: gseq, CSeq: cseq, Class: class, State: state,
	}
	rec.SetWire(wire)
	s.walAppend(rec)
}

// walFloor journals a group's floor blob — the queue member identities
// the redacted wire bytes deliberately do not carry.
func (s *Server) walFloor(groupID string, blob *protocol.FloorReplicaBody) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALFloor, Key: groupID, Data: mustJSON(blob)})
}

// floorState is a group's floor state as the controller reports it.
type floorState struct {
	mode             floor.Mode
	holder           group.MemberID
	queue, suspended []group.MemberID
	pinned           bool
}

func (s *Server) floorState(groupID string) (fs floorState) {
	fs.mode, fs.holder, fs.queue, fs.suspended, fs.pinned = s.floorCtl.StateSnapshot(groupID)
	return fs
}

// blob is the state in its replication and journal form.
func (fs floorState) blob() *protocol.FloorReplicaBody {
	blob := &protocol.FloorReplicaBody{Mode: fs.mode.String(), Holder: string(fs.holder), Pinned: fs.pinned}
	for _, m := range fs.queue {
		blob.Queue = append(blob.Queue, string(m))
	}
	for _, m := range fs.suspended {
		blob.Suspended = append(blob.Suspended, string(m))
	}
	return blob
}

// restoreFloor installs a replicated or journaled floor blob as the
// group's floor state — blob's inverse.
func (s *Server) restoreFloor(groupID string, blob *protocol.FloorReplicaBody) {
	mode, ok := floor.ParseMode(blob.Mode)
	if !ok {
		mode = floor.FreeAccess
	}
	queue := make([]group.MemberID, 0, len(blob.Queue))
	for _, m := range blob.Queue {
		queue = append(queue, group.MemberID(m))
	}
	suspended := make([]group.MemberID, 0, len(blob.Suspended))
	for _, m := range blob.Suspended {
		suspended = append(suspended, group.MemberID(m))
	}
	s.floorCtl.Restore(groupID, mode, group.MemberID(blob.Holder), queue, suspended, blob.Pinned)
}

// walPackage journals a partition package, so a restart of this process
// installs it again.
func (s *Server) walPackage(p protocol.TakeoverBody) {
	if s.wal == nil {
		return
	}
	for _, rec := range walRecords(p) {
		s.walAppend(rec)
	}
}

// walRecords is a package in journal form: a WALMember for a member row
// and token; a WALGroup, a WALFloor and a WALBoardHead for a group's
// roster, floor blob and board head; a WALEvent per retained event. A
// part the package does not carry has no record.
func walRecords(p protocol.TakeoverBody) []grouplog.WALRecord {
	var recs []grouplog.WALRecord
	if id, member := strings.CutPrefix(p.Key, "~"); member {
		if p.Member != nil {
			recs = append(recs, grouplog.WALRecord{
				Kind: grouplog.WALMember, Key: id, Data: mustJSON(walMemberData{Info: *p.Member, Token: p.Token}),
			})
		}
	} else {
		recs = append(recs, grouplog.WALRecord{
			Kind: grouplog.WALGroup, Key: p.Key, Data: mustJSON(walGroupData{Chair: p.Chair, Members: p.Members}),
		})
		if p.Floor != nil {
			recs = append(recs, grouplog.WALRecord{Kind: grouplog.WALFloor, Key: p.Key, Data: mustJSON(p.Floor)})
		}
	}
	for _, e := range p.Events {
		rec := grouplog.WALRecord{
			Kind: grouplog.WALEvent, Key: p.Key,
			GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State,
		}
		rec.SetWire(e.Wire)
		recs = append(recs, rec)
	}
	if p.BoardHead > 0 {
		recs = append(recs, grouplog.WALRecord{Kind: grouplog.WALBoardHead, Key: p.Key, GSeq: p.BoardHead})
	}
	return recs
}

// packageOf reads one journal record back as the partial package it
// restates — walRecords' inverse. ok is false for a record restating no
// package (or one too damaged to).
func packageOf(rec grouplog.WALRecord) (p protocol.TakeoverBody, ok bool) {
	p.Key = rec.Key
	switch rec.Kind {
	case grouplog.WALEvent:
		if rec.GSeq <= 0 {
			return p, false
		}
		p.Events = []protocol.ReplicaEventBody{{
			GSeq: rec.GSeq, CSeq: rec.CSeq, Class: rec.Class, State: rec.State, Wire: rec.WireBytes(),
		}}
	case grouplog.WALGroup:
		var data walGroupData
		if json.Unmarshal(rec.Data, &data) != nil {
			return p, false
		}
		p.Chair, p.Members = data.Chair, data.Members
	case grouplog.WALFloor:
		p.Floor = &protocol.FloorReplicaBody{}
		if json.Unmarshal(rec.Data, p.Floor) != nil {
			return p, false
		}
	case grouplog.WALBoardHead:
		p.BoardHead = rec.GSeq
	case grouplog.WALMember:
		var data walMemberData
		if json.Unmarshal(rec.Data, &data) != nil || data.Info.ID == "" {
			return p, false
		}
		p.Key, p.Member, p.Token = grouplog.MemberKey(data.Info.ID), &data.Info, data.Token
	default:
		return p, false
	}
	return p, p.Key != ""
}

// walMemberDrop journals a member's expiry, so a replayed journal does
// not resurrect a session the reaper already revoked.
func (s *Server) walMemberDrop(id group.MemberID) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: string(id)})
}

// mustJSON marshals a WAL payload; the payload shapes here cannot fail.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

// applyBoardWire converges the board operations carried by one logged
// board-class event (a coalesced event carries a burst: the top-level
// op plus the rest in More). Converge, not Apply: the source is
// authoritative — this node's own journal or a replicated suffix — so
// a leading hole is history the retention window dropped, not loss.
func applyBoardWire(gb *groupBoard, wire []byte) error {
	msg, err := protocol.DecodeBinary(wire)
	if err != nil {
		return err
	}
	var body protocol.SequencedBody
	if err := msg.Into(&body); err != nil || body.Seq == 0 {
		return err
	}
	gb.mu.Lock()
	defer gb.mu.Unlock()
	for _, op := range append([]protocol.SequencedBody{body}, body.More...) {
		if kind, ok := whiteboard.ParseOpKind(op.Kind); ok {
			if err := gb.board.Converge(whiteboard.Op{Seq: op.Seq, Author: op.Author, Kind: kind, Data: op.Data}); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayWAL installs every journaled record into the live planes, in
// write order — run by New before the listener accepts anyone, so the
// first client of the restarted process already sees the pre-crash
// GSeq/CSeq cursors, tokens and floor state.
func (s *Server) replayWAL(w *grouplog.WAL) error {
	return w.Replay(func(rec grouplog.WALRecord) error {
		switch rec.Kind {
		case grouplog.WALNextID:
			s.raiseNextID(rec.GSeq)
		case grouplog.WALMemberDrop:
			if rec.Key == "" {
				return nil
			}
			id := group.MemberID(rec.Key)
			s.mu.Lock()
			s.revokeTokenLocked(id)
			s.mu.Unlock()
			s.registry.Unregister(id)
			s.logs.Drop(grouplog.MemberKey(rec.Key))
		default:
			if p, ok := packageOf(rec); ok {
				s.install(p)
			}
		}
		return nil
	})
}

// Checkpoint restates the node's full serving state — the ID counter,
// then every partition key's package: member homes and tokens first (a
// group's chair must be registered before the group is), then every
// group's roster, floor and board head, each with its log's retained
// window — into a fresh WAL segment, then truncates the older segments.
// The probe loop runs it on the WALCheckpointInterval cadence; tests
// call it directly. No-op (nil) when the WAL is off.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	var keys []string
	for _, m := range s.registry.Members() {
		keys = append(keys, grouplog.MemberKey(string(m.ID)))
	}
	keys = append(append(keys, s.registry.Groups()...), s.logs.Keys()...)
	recs := []grouplog.WALRecord{{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()}}
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		if !seen[key] {
			seen[key] = true
			recs = append(recs, walRecords(s.dump(key))...)
		}
	}
	return s.wal.Checkpoint(recs)
}

// WALStats reports the segment store's occupancy (zero when off).
func (s *Server) WALStats() grouplog.WALStats {
	if s.wal == nil {
		return grouplog.WALStats{}
	}
	return s.wal.Stats()
}

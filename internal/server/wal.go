package server

// Write-ahead durability for a node's live planes. When Config.WALDir
// is set, every logged append and every piece of non-log serving state
// — rosters, floor blobs, member homes and tokens, board heads, the ID
// counter — is journaled to an append-only segment store
// (grouplog.WAL) before the next accept, and New replays the journal
// before listening, so a restarted node resumes with the exact
// GSeq/CSeq cursors its clients hold: a pre-crash client Reconnects
// with its token and converges through ordinary backfill, no snapshot
// needed. Periodic checkpoints restate the full state into a fresh
// segment and truncate the old ones, bounding both replay time and
// disk. All hooks are no-ops when the WAL is off (s.wal == nil), so
// the standalone in-memory server pays nothing.

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

// floorBlob snapshots a group's floor state in its replication form.
func (s *Server) floorBlob(groupID string) *protocol.FloorReplicaBody {
	return s.floorState(groupID).blob()
}

// restoreFloor installs a replicated or journaled floor blob as the
// group's floor state — floorBlob's inverse.
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

// groupData snapshots a group's roster and chair in their WAL form.
func (s *Server) groupData(groupID string) walGroupData {
	data := walGroupData{}
	if members, err := s.registry.GroupMembers(groupID); err == nil {
		for _, m := range members {
			data.Members = append(data.Members, memberInfo(m))
		}
	}
	if chair, err := s.registry.Chair(groupID); err == nil {
		data.Chair = string(chair)
	}
	return data
}

// walGroupState journals a group's full non-log serving state: roster
// and chair, the floor blob, and the board head (so a restarted board
// never re-mints sequence numbers clients already applied).
func (s *Server) walGroupState(groupID string) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALGroup, Key: groupID, Data: mustJSON(s.groupData(groupID))})
	s.walFloor(groupID, s.floorBlob(groupID))
	gb := s.board(groupID)
	gb.mu.Lock()
	head := gb.board.Seq()
	gb.mu.Unlock()
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALBoardHead, Key: groupID, GSeq: head})
}

// walMemberHome journals a homed member's directory row and resume
// token — what lets the token resolve again after a restart.
func (s *Server) walMemberHome(m group.Member, token string) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{
		Kind: grouplog.WALMember, Key: string(m.ID),
		Data: mustJSON(walMemberData{Info: memberInfo(m), Token: token}),
	})
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()})
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
func applyBoardWire(gb *groupBoard, wire []byte) {
	msg, err := protocol.DecodeBinary(wire)
	if err != nil {
		return
	}
	var body protocol.SequencedBody
	if msg.Into(&body) != nil || body.Seq == 0 {
		return
	}
	ops := append([]protocol.SequencedBody{body}, body.More...)
	gb.mu.Lock()
	for _, op := range ops {
		if kind, ok := whiteboard.ParseOpKind(op.Kind); ok {
			_ = gb.board.Converge(whiteboard.Op{Seq: op.Seq, Author: op.Author, Kind: kind, Data: op.Data})
		}
	}
	gb.mu.Unlock()
}

// replayWAL installs every journaled record into the live planes, in
// write order — run by New before the listener accepts anyone, so the
// first client of the restarted process already sees the pre-crash
// GSeq/CSeq cursors, tokens and floor state.
func (s *Server) replayWAL(w *grouplog.WAL) error {
	return w.Replay(func(rec grouplog.WALRecord) error {
		switch rec.Kind {
		case grouplog.WALEvent:
			if rec.Key == "" || rec.GSeq <= 0 {
				return nil
			}
			s.logs.Get(rec.Key).AppendRaw(rec.GSeq, rec.CSeq, rec.Class, rec.State, rec.WireBytes())
			if rec.Class == protocol.ClassBoard && !strings.HasPrefix(rec.Key, "~") {
				applyBoardWire(s.board(rec.Key), rec.WireBytes())
			}
		case grouplog.WALGroup:
			var data walGroupData
			if rec.Key == "" || json.Unmarshal(rec.Data, &data) != nil {
				return nil
			}
			for _, m := range data.Members {
				_ = s.registry.EnsureMember(memberFromInfo(m))
				s.bumpNextID(m.ID)
			}
			if data.Chair != "" {
				if err := s.registry.CreateGroup(rec.Key, group.MemberID(data.Chair)); err != nil {
					_ = err // duplicate create on a later restatement
				}
				for _, m := range data.Members {
					_ = s.registry.Join(rec.Key, group.MemberID(m.ID))
				}
			}
		case grouplog.WALFloor:
			var blob protocol.FloorReplicaBody
			if rec.Key == "" || json.Unmarshal(rec.Data, &blob) != nil {
				return nil
			}
			s.restoreFloor(rec.Key, &blob)
		case grouplog.WALMember:
			var data walMemberData
			if json.Unmarshal(rec.Data, &data) != nil || data.Info.ID == "" {
				return nil
			}
			_ = s.registry.EnsureMember(memberFromInfo(data.Info))
			s.bumpNextID(data.Info.ID)
			if data.Token != "" {
				s.mu.Lock()
				s.tokens[data.Token] = group.MemberID(data.Info.ID)
				s.tokenOf[group.MemberID(data.Info.ID)] = data.Token
				s.mu.Unlock()
			}
		case grouplog.WALMemberDrop:
			if rec.Key == "" {
				return nil
			}
			id := group.MemberID(rec.Key)
			s.mu.Lock()
			if tok, ok := s.tokenOf[id]; ok {
				delete(s.tokens, tok)
				delete(s.tokenOf, id)
			}
			s.mu.Unlock()
			s.registry.Unregister(id)
			s.logs.Drop(grouplog.MemberKey(rec.Key))
		case grouplog.WALBoardHead:
			if rec.Key == "" {
				return nil
			}
			gb := s.board(rec.Key)
			gb.mu.Lock()
			gb.board.SkipTo(rec.GSeq)
			gb.mu.Unlock()
		case grouplog.WALNextID:
			for {
				cur := s.nextID.Load()
				if cur >= rec.GSeq || s.nextID.CompareAndSwap(cur, rec.GSeq) {
					break
				}
			}
		}
		return nil
	})
}

// Checkpoint restates the node's full serving state — the ID counter,
// every member home and token, every group's roster/floor/board head,
// and every log's retained window — into a fresh WAL segment, then
// truncates the older segments. The probe loop runs it on the
// WALCheckpointInterval cadence; tests call it directly. No-op (nil)
// when the WAL is off.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	var recs []grouplog.WALRecord
	recs = append(recs, grouplog.WALRecord{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()})
	s.mu.Lock()
	tokens := make(map[group.MemberID]string, len(s.tokenOf))
	for id, tok := range s.tokenOf {
		tokens[id] = tok
	}
	s.mu.Unlock()
	for _, m := range s.registry.Members() {
		recs = append(recs, grouplog.WALRecord{
			Kind: grouplog.WALMember, Key: string(m.ID),
			Data: mustJSON(walMemberData{Info: memberInfo(m), Token: tokens[m.ID]}),
		})
	}
	for _, gid := range s.registry.Groups() {
		recs = append(recs,
			grouplog.WALRecord{Kind: grouplog.WALGroup, Key: gid, Data: mustJSON(s.groupData(gid))},
			grouplog.WALRecord{Kind: grouplog.WALFloor, Key: gid, Data: mustJSON(s.floorBlob(gid))},
		)
		gb := s.board(gid)
		gb.mu.Lock()
		head := gb.board.Seq()
		gb.mu.Unlock()
		recs = append(recs, grouplog.WALRecord{Kind: grouplog.WALBoardHead, Key: gid, GSeq: head})
	}
	for _, key := range s.logs.Keys() {
		lg, ok := s.logs.Peek(key)
		if !ok {
			continue
		}
		for _, e := range lg.Dump() {
			rec := grouplog.WALRecord{
				Kind: grouplog.WALEvent, Key: key,
				GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State,
			}
			rec.SetWire(e.Wire)
			recs = append(recs, rec)
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

package server

// The partition package (protocol.TakeoverBody) is the one form a
// partition key's state takes when it leaves or enters the live planes:
// dump is the only producer (migration, checkpoint, repair), install the
// only consumer (WAL replay, failover adoption of a group or a member
// home, a migration's takeover), and persist appends the directory part
// to the key's log whenever it changes.

import (
	"errors"
	"slices"
	"strconv"
	"strings"

	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/whiteboard"
)

// directory is a partition key's directory part: a group's chair and
// roster, or a "~member" key's member row and resume token.
func (s *Server) directory(key string) protocol.TakeoverBody {
	p := protocol.TakeoverBody{Key: key}
	if id, member := strings.CutPrefix(key, "~"); member {
		if m, err := s.registry.Member(group.MemberID(id)); err == nil {
			info := memberInfo(m)
			p.Member = &info
		}
		s.mu.Lock()
		p.Token = s.tokenOf[group.MemberID(id)]
		s.mu.Unlock()
		return p
	}
	if members, err := s.registry.GroupMembers(key); err == nil {
		for _, m := range members {
			p.Members = append(p.Members, memberInfo(m))
		}
	}
	if chair, err := s.registry.Chair(key); err == nil {
		p.Chair = string(chair)
	}
	return p
}

// dump exports a partition key's live state as a package: a group's
// board head, and — read under the key's log lock, so that they are of
// one moment — the directory part, a group's encoded floor snapshot, the
// log's retained window and the head it covers. then, when set, gets the
// package under that lock too, so that what it ships goes out before
// any later record.
func (s *Server) dump(key string, then func(protocol.TakeoverBody)) protocol.TakeoverBody {
	var boardHead int64
	grp := !strings.HasPrefix(key, "~")
	if grp {
		gb := s.board(key)
		gb.mu.Lock()
		boardHead = gb.board.Seq()
		gb.mu.Unlock()
	}
	var p protocol.TakeoverBody
	at := func(head int64, es []grouplog.Entry) {
		p = s.directory(key)
		p.GSeq, p.BoardHead = head, boardHead
		if grp {
			p.Floor = s.floorCtl.Snapshot(key).AppendBinary(nil)
		}
		for _, e := range es {
			p.Events = append(p.Events, protocol.ReplicaEventBody{GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State, Wire: e.Wire})
		}
		if then != nil {
			then(p)
		}
	}
	if lg, ok := s.logs.Peek(key); ok {
		lg.DumpAt(at)
	} else {
		at(0, nil)
	}
	return p
}

// install puts a package — whole or partial — into the live planes:
// member rows into the registry (and the ID counter past them), a
// member's resume token into the token map, a group's roster and chair,
// its floor snapshot into the controller, the events into the log plane
// with their original sequence numbers and the board ops among them
// into the authoritative board, which never re-mints below the
// package's board head. Every step is idempotent — a duplicate is state
// already live — so replaying a journal that restates a key, or
// adopting on top of a migration's residue, converges. What landed is
// then recorded: journalled, so a restart of this process installs it
// again, and — when replicate says so, as for an adoption — shipped to
// this node's replica peers. A floor snapshot that does not decode is
// counted and returned: the group keeps the floor it had, the other
// steps still land, and WAL replay fails on it.
func (s *Server) install(p protocol.TakeoverBody, replicate bool) (err error) {
	if id, member := strings.CutPrefix(p.Key, "~"); member {
		if p.Member != nil {
			s.installed(s.registry.EnsureMember(memberFromInfo(*p.Member)))
		}
		s.bumpNextID(id)
		if p.Token != "" {
			s.mu.Lock()
			s.revokeTokenLocked(group.MemberID(id))
			s.tokens[p.Token] = group.MemberID(id)
			s.tokenOf[group.MemberID(id)] = p.Token
			s.mu.Unlock()
		}
	}
	for _, m := range p.Members {
		s.installed(s.registry.EnsureMember(memberFromInfo(m)))
		s.bumpNextID(m.ID)
	}
	if p.Chair != "" {
		// The roster is stated whole: whoever the registry still lists
		// beyond it (a journal's earlier package, an earlier adoption's
		// residue) has left since.
		s.installed(s.registry.CreateGroup(p.Key, group.MemberID(p.Chair)))
		ids, _ := s.registry.GroupMemberIDs(p.Key) // no group: CreateGroup counted why
		for _, id := range ids {
			if !slices.ContainsFunc(p.Members, func(m protocol.NodeMemberInfo) bool { return m.ID == string(id) }) {
				s.installed(s.registry.Leave(p.Key, id))
			}
		}
		for _, m := range p.Members {
			s.installed(s.registry.Join(p.Key, group.MemberID(m.ID)))
		}
	}
	if len(p.Floor) > 0 {
		var snap floor.Snapshot
		if snap, err = floor.DecodeSnapshot(p.Floor); err == nil {
			s.floorCtl.Restore(p.Key, snap)
		} else {
			p.Floor = nil // journal only what landed
		}
		s.installed(err)
	}
	if len(p.Events) > 0 {
		lg := s.logs.Get(p.Key)
		for _, e := range p.Events {
			lg.AppendRaw(e.GSeq, e.CSeq, e.Class, e.State, e.Wire)
			if e.Class == protocol.ClassBoard {
				s.installed(applyBoardWire(s.board(p.Key), e.Wire))
			}
		}
	}
	if p.BoardHead > 0 {
		gb := s.board(p.Key)
		gb.mu.Lock()
		gb.board.SkipTo(p.BoardHead)
		gb.mu.Unlock()
	}
	if s.wal != nil || replicate {
		if rec, perr := protocol.PackageRecord(p); perr != nil {
			s.walAppendErrs.Add(1) // a package that does not encode
		} else {
			s.record(rec, replicate)
		}
	}
	return err
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

// installed counts an install step that failed: a duplicate is the
// idempotent re-install of state already live, anything else — a floor
// snapshot that did not decode among them — is state the package
// carried that did not land (dmps_errors_total{site="state_install"}).
func (s *Server) installed(err error) {
	if err != nil && !errors.Is(err, group.ErrDuplicate) {
		s.installErrs.Add(1)
	}
}

// persist appends a partition key's directory part to the key's log
// after it changed — a group's membership, a member's admission — as a
// directory entry, which no client receives: read under the log's lock,
// so that a later GSeq always states a newer directory, and recorded
// there (journalled, and shipped to the replica peers when this node
// serves the key). The read takes the registry's locks, and s.mu for a
// member's token, beneath the log's: the lock order of a floor
// transition, log → floor → registry. Without a journal or peers
// nothing reads the entry, and nothing is appended.
func (s *Server) persist(key string) {
	if s.wal == nil && s.cluster == nil {
		return
	}
	var rec grouplog.WALRecord
	_, err := s.logs.Get(key).Append(grouplog.ClassDirectory, true, func(gseq, cseq int64) (wire []byte, err error) {
		rec, err = protocol.DirectoryEntry(s.directory(key), gseq, cseq)
		return rec.Wire, err
	}, func([]byte) { s.record(rec, s.replicates(key)) })
	if err != nil {
		s.logAppendErrs.Add(1)
	}
}

// bumpNextID advances the member-ID counter past the numeric suffix of
// an installed member ID ("alice#7" → at least 7), so adoption, WAL
// replay and migration can never lead to re-minting an ID clients
// already hold.
func (s *Server) bumpNextID(memberID string) {
	i := strings.LastIndexByte(memberID, '#')
	if i < 0 {
		return
	}
	if n, err := strconv.ParseInt(memberID[i+1:], 10, 64); err == nil {
		s.raiseNextID(n)
	}
}

// raiseNextID raises the member-ID counter to at least n.
func (s *Server) raiseNextID(n int64) {
	for {
		cur := s.nextID.Load()
		if cur >= n || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// memberFromInfo converts a replicated directory row back to a Member.
func memberFromInfo(m protocol.NodeMemberInfo) group.Member {
	role := group.Participant
	if strings.EqualFold(m.Role, "chair") {
		role = group.Chair
	}
	return group.Member{ID: group.MemberID(m.ID), Name: m.Name, Role: role, Priority: m.Priority}
}

// memberInfo converts a directory row to its replication form.
func memberInfo(m group.Member) protocol.NodeMemberInfo {
	return protocol.NodeMemberInfo{ID: string(m.ID), Name: m.Name, Role: m.Role.String(), Priority: m.Priority}
}

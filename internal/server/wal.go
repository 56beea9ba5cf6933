package server

// Write-ahead durability for a node's live planes. When Config.WALDir
// is set, every change to the serving state is journaled as one record
// in an append-only segment store (grouplog.WAL): a logged append as
// its stamped frame, with the encoded floor snapshot beside a floor or
// suspend event; a change to a key's directory part — roster and chair, member
// row and token — as the key's partition package; a member's expiry;
// the ID counter. New replays the journal through the one install
// before listening, so a restarted node resumes with the exact
// GSeq/CSeq cursors its clients hold: a pre-crash client Reconnects
// with its token and converges through ordinary backfill, no snapshot
// needed. Periodic checkpoints restate the ID counter and every key's
// package into a fresh segment and truncate the old ones, bounding both
// replay time and disk. All hooks are no-ops when the WAL is off
// (s.wal == nil), so the standalone in-memory server pays nothing.

import (
	"encoding/json"
	"fmt"

	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

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
// restarted log resumes at the same GSeq/CSeq — and, in the same
// record, the encoded floor snapshot of a floor or suspend event: the
// queue member identities the redacted wire bytes deliberately do not
// carry. Called inside the log append's deliver callback (the WAL takes
// only its own lock).
func (s *Server) walEvent(key string, gseq, cseq int64, class string, state bool, wire, snap []byte) {
	s.walAppend(grouplog.WALRecord{
		Kind: grouplog.WALEvent, Key: key,
		GSeq: gseq, CSeq: cseq, Class: class, State: state, Wire: wire, Data: snap,
	})
}

// walPackage journals a partition package as one record, so a restart
// of this process installs it again.
func (s *Server) walPackage(p protocol.TakeoverBody) {
	if s.wal == nil {
		return
	}
	rec, err := walRecord(p)
	if err != nil {
		s.walAppendErrs.Add(1)
		return
	}
	s.walAppend(rec)
}

// walRecord is a package in journal form: its JSON, the encoding the
// state and takeover forwards carry it in.
func walRecord(p protocol.TakeoverBody) (grouplog.WALRecord, error) {
	data, err := json.Marshal(p)
	return grouplog.WALRecord{Kind: grouplog.WALPackage, Key: p.Key, Data: data}, err
}

// packageOf reads an event or package record back as the package it
// restates — walEvent's and walRecord's inverse.
func packageOf(rec grouplog.WALRecord) (p protocol.TakeoverBody, err error) {
	switch rec.Kind {
	case grouplog.WALEvent:
		p.Key, p.Floor = rec.Key, rec.Data
		p.Events = []protocol.ReplicaEventBody{{
			GSeq: rec.GSeq, CSeq: rec.CSeq, Class: rec.Class, State: rec.State, Wire: rec.Wire,
		}}
	case grouplog.WALPackage:
		err = json.Unmarshal(rec.Data, &p)
	default:
		return p, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if err == nil && p.Key == "" {
		err = fmt.Errorf("kind %d record without a key", rec.Kind)
	}
	return p, err
}

// walMemberDrop journals a member's expiry, so a replayed journal does
// not resurrect a session the reaper already revoked.
func (s *Server) walMemberDrop(id group.MemberID) {
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: string(id)})
}

// replayWAL installs every journaled record into the live planes, in
// write order — run by New before the listener accepts anyone, so the
// first client of the restarted process already sees the pre-crash
// GSeq/CSeq cursors, tokens and floor state. A record that does not
// read back as what it says — a floor snapshot that does not decode
// among them — fails the replay, and with it New.
func (s *Server) replayWAL(w *grouplog.WAL) error {
	return w.Replay(func(rec grouplog.WALRecord) error {
		switch rec.Kind {
		case grouplog.WALNextID:
			s.raiseNextID(rec.GSeq)
		case grouplog.WALMemberDrop:
			id := group.MemberID(rec.Key)
			s.mu.Lock()
			s.revokeTokenLocked(id)
			s.mu.Unlock()
			s.registry.Unregister(id)
			s.logs.Drop(grouplog.MemberKey(rec.Key))
		default:
			p, err := packageOf(rec)
			if err != nil {
				return err
			}
			return s.install(p)
		}
		return nil
	})
}

// Checkpoint restates the node's full serving state — the ID counter,
// then one package record per partition key: member homes and tokens
// first (a group's chair must be registered before the group is), then
// every group's roster, floor and board head, each with its log's
// retained window — into a fresh WAL segment, then truncates the older
// segments. The probe loop runs it on the WALCheckpointInterval
// cadence; tests call it directly. No-op (nil) when the WAL is off.
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
		if seen[key] {
			continue
		}
		seen[key] = true
		rec, err := walRecord(s.dump(key))
		if err != nil {
			return err
		}
		recs = append(recs, rec)
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

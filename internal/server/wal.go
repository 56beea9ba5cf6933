package server

// Write-ahead durability for a node's live planes. When Config.WALDir
// is set, every change to the serving state is journaled as one record
// in an append-only segment store (grouplog.WAL), each at the GSeq it
// took in its key's log: a logged append as its stamped frame, with the
// encoded floor snapshot beside a floor or suspend event; a change to a
// key's directory part — roster and chair, member row and token — as
// the directory entry it appended; a member's expiry, as the last GSeq
// of the member's log; and, unkeyed, the ID counter. A replica forward
// carries the same record (record sends both). New replays the journal
// through the one install before listening, so a restarted node resumes
// with the exact GSeq/CSeq cursors its clients hold: a pre-crash client
// Reconnects with its token and converges through ordinary backfill, no
// snapshot needed. Periodic checkpoints restate the ID counter and every
// key's package, at the GSeq it covers, into a fresh segment and
// truncate the old ones, bounding both replay time and disk. A journal
// written before directory entries holds package records for directory
// changes instead, at no GSeq; replay installs them as before. All
// hooks are no-ops when the WAL is off (s.wal == nil), so the
// standalone in-memory server pays nothing.

import (
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

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
			p, err := protocol.PackageOf(rec)
			if err != nil {
				return err
			}
			return s.install(p, false)
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
		rec, err := protocol.PackageRecord(s.dump(key, nil))
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

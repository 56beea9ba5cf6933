package server

import (
	"time"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

// Reap removes every member whose session has been silent for at least
// Config.SessionTTL as of now — whether it disconnected outright or
// just went dark (a crashed peer on a simulated network never closes
// anything; its silence is all the server ever sees). A live client is
// never silent: it answers every status probe, refreshing its
// last-seen time. For each reaped member the resume token stops
// resolving (a later token hello gets the typed "session_expired"
// rejection), the directory entry, memberships and private event log
// are dropped, any floor they held is released (promoting the next
// queued member) and any queue slot they occupied is vacated. It
// returns the reaped member IDs. The probe loop calls it every tick;
// tests call it directly with a chosen clock reading.
//
// Reaping is what bounds the server's state to its live population:
// without it, every member that ever connected would pin a token, a
// directory entry and a member log forever — the red light of Figure
// 3(c) is useful for minutes, not for the lifetime of a million-user
// deployment.
func (s *Server) Reap(now time.Time) []string {
	var victims []*session
	s.mu.Lock()
	for id, sess := range s.sessions {
		sess.mu.Lock()
		gone := now.Sub(sess.lastSeen) >= s.cfg.SessionTTL
		sess.mu.Unlock()
		if !gone {
			continue
		}
		victims = append(victims, sess)
		delete(s.sessions, id)
		s.revokeTokenLocked(id)
	}
	s.mu.Unlock()

	out := make([]string, 0, len(victims))
	for _, sess := range victims {
		id := sess.member.ID
		// Tear the transport down (no-op if already gone); the session
		// is out of the table, so no new traffic can reach it.
		s.disconnect(sess)
		// Vacate floor state before the directory entry disappears, so
		// promotion still resolves the remaining members normally. All
		// groups, not just currently-joined ones: a queue slot (or even
		// the floor) deliberately survives a Leave, and a reaped ghost
		// left in a queue would be promoted to a floor nobody can ever
		// release. A vacated slot moves everyone behind it: the release,
		// or a "queue" event for a queued-only member, tells each of them
		// their new slot.
		for _, gid := range s.registry.Groups() {
			s.logFloorEvent(gid, true, traceCtx{}, func() (protocol.FloorEventBody, bool) {
				wasHolder, wasQueued := s.floorCtl.Evict(gid, id)
				event := "queue"
				if wasHolder {
					event = "released"
				}
				return protocol.FloorEventBody{Member: string(id), Event: event}, wasHolder || wasQueued
			})
		}
		key := grouplog.MemberKey(string(id))
		if sess.homed {
			// Only the member's home retracts their replicated state: a
			// node-scoped session expiring must not revoke the home's
			// journal entry or the successors' standby copy. The drop
			// takes the member log's last GSeq, and is recorded under its
			// lock; its entry has no bytes to encode, so it cannot fail.
			var drop grouplog.WALRecord
			_, _ = s.logs.Get(key).Append(grouplog.ClassDirectory, true, func(gseq, _ int64) ([]byte, error) {
				drop = grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: string(id), GSeq: gseq}
				return nil, nil
			}, func([]byte) { s.record(drop, true) })
		}
		s.registry.Unregister(id)
		s.logs.Drop(key)
		out = append(out, string(id))
	}
	return out
}

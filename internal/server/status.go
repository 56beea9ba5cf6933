package server

import (
	"fmt"
	"maps"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/resource"
)

// snapshotSessions copies the session table under one lock acquisition.
func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// probeLoop periodically probes every session, recomputes the connection
// lights (Figure 3) and pushes them — it is the only lights trigger —
// lifts Media-Suspend once the resource level returns to Normal, and
// reaps members gone longer than the session TTL.
func (s *Server) probeLoop() {
	defer s.wg.Done()
	lastCkpt := s.cfg.Clock.Now()
	for {
		select {
		case <-s.closed:
			return
		case <-s.cfg.Clock.After(s.cfg.ProbeInterval):
		}
		// One encode for the whole probe fan-out.
		wire, err := protocol.EncodeBinary(protocol.MustNew(protocol.TStatusProbe, nil))
		if err != nil {
			continue
		}
		for _, sess := range s.snapshotSessions() {
			s.sendWire(sess, wire)
		}
		s.broadcastLights()
		s.maybeReinstate()
		now := s.cfg.Clock.Now()
		s.Reap(now)
		// The replication sweep rides the probe tick: a replica that
		// stayed behind is repaired from this node's live state.
		s.repairReplicas()
		if s.wal != nil && now.Sub(lastCkpt) >= s.cfg.WALCheckpointInterval {
			lastCkpt = now
			// A failed checkpoint deletes no older segment, so replay just
			// has more to read; the failure is counted.
			if err := s.Checkpoint(); err != nil {
				s.ckptErrs.Add(1)
			}
		}
	}
}

// Lights returns the current connection lights, member ID → light.
func (s *Server) Lights() map[string]Light {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Light, len(s.sessions))
	for id, sess := range s.sessions {
		out[string(id)] = sess.light(now, s.cfg.ProbeTimeout)
	}
	return out
}

// broadcastLights pushes the light table — with each member's
// backpressure counters and the event-log heads digest — to every
// connected client whose copy is stale. The teacher's window renders
// the lights as the per-student indicator row; the counters make a slow
// consumer visible before its light ever turns red; and the heads
// digest is the repair plane's quiet-tail nudge: a client comparing a
// log's per-class head against its own last applied CSeq discovers
// drops that no later event would ever expose (a tail-of-burst board
// op, an invitation, a grant on a group that then went silent) and asks
// TBackfill.
//
// The digest is filtered per recipient — the logs of their joined
// groups plus their own member log, masked to their subscribed event
// classes — because event logs are group-private like the boards they
// carry: an unfiltered digest would leak every breakout group's
// existence and activity to every session. And the push itself is
// deduplicated per recipient: a session whose last accepted copy
// already matches the current lights, drop counters and digest is
// skipped outright — on a quiet server the probe tick re-encodes and
// re-sends nothing. Queue depth is deliberately not part of the
// comparison (it flutters with the probes themselves); it rides along
// whenever something meaningful changed. The probe tick is the one
// caller: a join, leave or disconnect pushes nothing itself, so a tick
// costs O(stale sessions) pushes and membership churn costs none.
func (s *Server) broadcastLights() {
	now := s.cfg.Clock.Now()
	sessions := s.snapshotSessions()
	lights := make(map[string]string, len(sessions))
	drops := make(map[string]int64, len(sessions))
	for _, sess := range sessions {
		// The lights and backpressure tables are sharded by home node: in
		// cluster mode each node names only the members it homes, so no
		// table anywhere grows with the whole fleet — a client merges the
		// per-node tables it receives. (Node-scoped sessions still receive
		// the push below: it carries the heads digest for the groups this
		// node owns.)
		if s.cluster != nil && !sess.homed {
			continue
		}
		id := string(sess.member.ID)
		lights[id] = string(sess.light(now, s.cfg.ProbeTimeout))
		drops[id] = sess.drops.Load()
	}
	heads := s.logs.ClassHeads()
	// Built lazily, once, when the first stale session needs it: a fully
	// quiet tick allocates nothing beyond the comparison inputs.
	var backpress map[string]protocol.BackpressureBody
	for _, sess := range sessions {
		if !sess.up() {
			continue
		}
		myHeads := s.headsFor(sess, heads)
		sess.mu.Lock()
		fresh := sess.lightsSent &&
			maps.Equal(sess.sentLights, lights) &&
			maps.Equal(sess.sentDrops, drops) &&
			maps.EqualFunc(sess.sentHeads, myHeads, maps.Equal[map[string]int64, map[string]int64])
		sess.mu.Unlock()
		if fresh {
			continue
		}
		if backpress == nil {
			backpress = make(map[string]protocol.BackpressureBody, len(sessions))
			for _, other := range sessions {
				if s.cluster != nil && !other.homed {
					continue
				}
				backpress[string(other.member.ID)] = protocol.BackpressureBody{
					QueueDepth: len(other.queue),
					QueueCap:   cap(other.queue),
					Drops:      other.drops.Load(),
				}
			}
		}
		body := protocol.LightsBody{
			Lights:       lights,
			Backpressure: backpress,
			Heads:        myHeads,
		}
		if s.cluster != nil {
			// Stamp the shard so clients replace this node's entries
			// wholesale (pruning departed members) instead of merging
			// blindly across nodes.
			body.Origin = fmt.Sprintf("n%d", s.cluster.cfg.Self)
		}
		if s.sendMsg(sess, protocol.MustNew(protocol.TLights, body)) {
			s.lightsPushes.Add(1)
			sess.mu.Lock()
			sess.lightsSent = true
			sess.sentLights = lights
			sess.sentDrops = drops
			sess.sentHeads = myHeads
			sess.mu.Unlock()
		}
	}
}

// headsFor filters the heads digest to what one recipient may see: the
// logs of their joined groups and their own member event log, further
// masked to the event classes they subscribe to.
func (s *Server) headsFor(sess *session, heads map[string]map[string]int64) map[string]map[string]int64 {
	if len(heads) == 0 {
		return nil
	}
	var out map[string]map[string]int64
	add := func(key string) {
		hs, ok := heads[key]
		if !ok {
			return
		}
		var filtered map[string]int64
		for class, head := range hs {
			if !sess.wantsClass(class) {
				continue
			}
			if filtered == nil {
				filtered = make(map[string]int64, len(hs))
			}
			filtered[class] = head
		}
		if filtered != nil {
			if out == nil {
				out = make(map[string]map[string]int64)
			}
			out[key] = filtered
		}
	}
	for _, gid := range s.registry.JoinedGroups(sess.member.ID) {
		add(gid)
	}
	add(grouplog.MemberKey(string(sess.member.ID)))
	return out
}

// maybeReinstate lifts suspensions in every group once resources are
// Normal again, broadcasting TResume for each reinstated member (each
// notice restating the — by then empty — suspended set).
func (s *Server) maybeReinstate() {
	if s.cfg.Monitor == nil || s.cfg.Monitor.Level() != resource.Normal {
		return
	}
	for _, gid := range s.registry.Groups() {
		suspended := s.floorCtl.Snapshot(gid).Suspended
		if len(suspended) == 0 {
			continue
		}
		s.floorCtl.Reinstate(gid)
		for _, m := range suspended {
			s.logSuspend(gid, protocol.TResume, string(m), resource.Normal, traceCtx{})
		}
	}
}

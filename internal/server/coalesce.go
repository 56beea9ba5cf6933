package server

import (
	"time"

	"dmps/internal/floor"
	"dmps/internal/protocol"
)

// markQueueRestate records that a floor transition shifted the group's
// pending queue, so queued members' slots need restating. The
// restatement itself is coalesced: the group is marked dirty and the
// next CoalesceInterval tick logs ONE "queue" event for it, whatever
// number of transitions landed in between — one ring slot and one
// fan-out per tick per churning group, instead of one per transition.
// The event content is re-read inside the log append (logFloorEvent),
// so a restatement can never carry a queue older than the transitions
// it stands for. A transition that left the queue empty needs no
// restatement: whatever emptied it (grants, releases, mode switches)
// cleared the members' slots through its own events.
func (s *Server) markQueueRestate(groupID string, mode floor.Mode) {
	if _, queue := s.floorCtl.HolderAndQueue(groupID); len(queue) == 0 {
		return
	}
	s.restateMarked.Add(1)
	s.coMu.Lock()
	if s.coDirty == nil {
		s.coDirty = make(map[string]floor.Mode)
	}
	s.coDirty[groupID] = mode
	s.coMu.Unlock()
}

// FlushQueueRestatements logs the pending coalesced "queue"
// restatements now — one per dirty group — and reports how many went
// out. The coalesce loop calls it every CoalesceInterval; tests and
// benchmarks call it directly for deterministic timing.
func (s *Server) FlushQueueRestatements() int {
	s.coMu.Lock()
	dirty := s.coDirty
	s.coDirty = nil
	s.coMu.Unlock()
	for gid, mode := range dirty {
		s.restateLogged.Add(1)
		s.logFloorEvent(gid, protocol.FloorEventBody{Mode: mode.String(), Event: "queue"}, traceCtx{})
	}
	return len(dirty)
}

// CoalesceStats reports the queue-restatement coalescing ratio: marked
// counts transitions that requested a restatement, logged counts the
// restatements actually logged. logged/marked is the amortized cost the
// queue-churn benchmark gates on — N transitions per tick must cost one
// logged event, not N.
func (s *Server) CoalesceStats() (marked, logged int64) {
	return s.restateMarked.Load(), s.restateLogged.Load()
}

// coalesceLoop drives both coalescers. Queue restatements flush on a
// free-running CoalesceInterval tick. Board batches are deadline-driven:
// the loop sleeps to the earliest open batch's pacing deadline and holds
// no board timer at all while none is open — a batch opening in a group
// not yet tracked wakes it through boWake.
func (s *Server) coalesceLoop() {
	defer s.wg.Done()
	tick := s.cfg.Clock.After(s.cfg.CoalesceInterval)
	var deadline <-chan time.Time // nil while no batch is open
	for {
		select {
		case <-s.closed:
			return
		case <-tick:
			s.FlushQueueRestatements()
			tick = s.cfg.Clock.After(s.cfg.CoalesceInterval)
			continue
		case <-s.boWake:
		case <-deadline:
		}
		deadline = nil
		if _, next := s.flushOpenBoards(flushDeadline); !next.IsZero() {
			deadline = s.cfg.Clock.After(next.Sub(s.cfg.Clock.Now()))
		}
	}
}

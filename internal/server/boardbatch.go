package server

import (
	"encoding/binary"
	"fmt"
	"time"

	"dmps/internal/protocol"
	"dmps/internal/transport"
	"dmps/internal/whiteboard"
)

// boardBatchMax bounds a coalesced board event by count: a storm longer
// than this flushes mid-slot, keeping any single logged message (and the
// burst a catching-up client applies at once) small. 16 is the knee
// measured on a two-annotator storm: larger bounds raised the latency
// per operation, smaller ones gave up throughput.
const boardBatchMax = 16

// boardBatchBytes bounds a coalesced board event by size: the encoded
// operations of one event stay within the smallest limit any message to
// a client meets, a trunk stream's, less room for the event's envelope
// and for the replica forward that wraps it. An operation that would
// push the open batch past it flushes the batch first, and one that
// alone exceeds it is refused before it is appended.
const boardBatchBytes = transport.MaxStreamMessage - 64<<10

// boardSlot is the pacing slot: each group logs at most one held board
// event per slot, and it is the leading-edge threshold, so a stream
// slower than one line per slot (~320 lines/s) is never held.
const boardSlot = 3125 * time.Microsecond

// flushCause says why a board event was logged; the per-cause counters
// are exported as dmps_board_flush_total{cause}.
type flushCause int

const (
	flushInline   flushCause = iota // leading edge: logged on arrival, never held
	flushDeadline                   // trailing edge: the batch's pacing slot came due
	flushType                       // a chat line met an annotation batch, or the reverse
	flushFull                       // the batch reached boardBatchMax or boardBatchBytes
	flushExplicit                   // FlushBoardBatches
	numFlushCauses
)

var flushCauseNames = [numFlushCauses]string{"inline", "deadline", "type", "full", "explicit"}

// boardOpBytes bounds what one operation adds to a board event's
// encoded body: its author, kind and data, each behind a length prefix,
// plus its sequence number and its burst count.
func boardOpBytes(author, kind, data string) int {
	return len(author) + len(kind) + len(data) + 5*binary.MaxVarintLen64
}

// checkBoardOp refuses, with a transport.ErrTooLarge cause, an
// operation no board event could carry — before it is appended, so the
// board never holds an operation no replica can be sent.
func checkBoardOp(author, kind, data string) error {
	if n := boardOpBytes(author, kind, data); n > boardBatchBytes {
		return fmt.Errorf("server: board operation of %d bytes exceeds the %d-byte event budget: %w", n, boardBatchBytes, transport.ErrTooLarge)
	}
	return nil
}

// enqueueBoardOp routes one authoritative board operation into the
// coalescing plane, which paces each group to one timer-driven event
// per boardSlot. Leading edge: when no batch is open and the
// group's last logged board event is at least a slot old, the
// operation logs inline — a stream slower than one line per slot is
// never held. Trailing edge: an operation inside the slot opens (or
// joins) the group's batch, which the board loop flushes when the slot
// ends, at lastLog + slot; an operation that finds the batch already
// past that deadline (the loop is late) flushes it first and is judged
// on its own, so a stale batch never captures later lines. Any author
// joins the open batch — every operation in it carries its own author —
// but a different wire type (chat vs annotate) flushes it, since one
// event has one type. boardBatchMax and boardBatchBytes bound any single
// event; under a storm the count bound closes batches long before the
// timer does. The operation is already appended to the board; only the
// logged broadcast defers, by at most one slot. Requires gb.mu — the
// same lock that serialized append+broadcast before batching, so log
// order still equals board order.
func (s *Server) enqueueBoardOp(groupID string, gb *groupBoard, op whiteboard.Op, kind string, typ protocol.Type) {
	s.boardOps.Add(1)
	now := s.cfg.Clock.Now()
	size := boardOpBytes(op.Author, kind, op.Data)
	if len(gb.pend) > 0 {
		switch {
		case !now.Before(gb.lastLog.Add(boardSlot)):
			s.flushBoardLocked(groupID, gb, flushDeadline, now)
		case gb.pendType != typ:
			s.flushBoardLocked(groupID, gb, flushType, now)
		case gb.pendBytes+size > boardBatchBytes:
			s.flushBoardLocked(groupID, gb, flushFull, now)
		}
	}
	body := protocol.SequencedBody{Seq: op.Seq, Author: op.Author, Kind: kind, Data: op.Data}
	if len(gb.pend) == 0 {
		if now.Sub(gb.lastLog) >= boardSlot {
			gb.lastLog = now
			s.logBoardEvent(groupID, typ, body, flushInline)
			return
		}
		gb.pendAt = now
		s.trackOpenBoard(groupID, gb)
	}
	gb.pendType = typ
	gb.pend = append(gb.pend, body)
	gb.pendBytes += size
	if len(gb.pend) >= boardBatchMax {
		s.flushBoardLocked(groupID, gb, flushFull, now)
	}
}

// flushBoardLocked logs the group's pending board batch as one event:
// the first operation rides the top-level body, the rest follow in
// More. A deadline flush is accounted at the instant it was due, not
// when the loop (or the next arrival) got to it, so a late timer never
// stretches the following slot. Requires gb.mu.
func (s *Server) flushBoardLocked(groupID string, gb *groupBoard, cause flushCause, now time.Time) {
	if len(gb.pend) == 0 {
		return
	}
	body := gb.pend[0]
	if len(gb.pend) > 1 {
		body.More = append([]protocol.SequencedBody(nil), gb.pend[1:]...)
	}
	gb.pend = gb.pend[:0]
	gb.pendBytes = 0
	if cause == flushDeadline {
		gb.lastLog = gb.lastLog.Add(boardSlot)
	} else {
		gb.lastLog = now
	}
	s.boardHold.Observe(now.Sub(gb.pendAt).Seconds())
	s.logBoardEvent(groupID, gb.pendType, body, cause)
}

// logBoardEvent broadcasts one (possibly batched) board event through
// the log plane, counting it by cause for the storm ratio.
func (s *Server) logBoardEvent(groupID string, typ protocol.Type, body protocol.SequencedBody, cause flushCause) {
	s.boardFlushes[cause].Add(1)
	event := protocol.MustNew(typ, body)
	event.Group = groupID
	s.logBroadcast(groupID, event)
}

// trackOpenBoard puts a group whose batch just opened into the
// open-batch set and, if it was not there already, wakes the board loop
// to arm its deadline. A group still in the set needs no wake:
// deadlines only move later, so the loop is armed at or before this
// batch's. Requires gb.mu.
func (s *Server) trackOpenBoard(groupID string, gb *groupBoard) {
	s.boMu.Lock()
	_, tracked := s.boOpen[groupID]
	s.boOpen[groupID] = gb
	s.boMu.Unlock()
	if tracked {
		return
	}
	select {
	case s.boWake <- struct{}{}:
	default:
	}
}

// flushOpenBoards visits the groups in the open-batch set — O(open
// batches), nothing at all on an idle server — and flushes every batch
// whose slot is due (every batch, when cause is flushExplicit). A group
// found with no batch left leaves the set. It reports how many batches
// went out and the earliest deadline still open (zero when none).
func (s *Server) flushOpenBoards(cause flushCause) (flushed int, next time.Time) {
	s.boMu.Lock()
	open := make(map[string]*groupBoard, len(s.boOpen))
	for gid, gb := range s.boOpen {
		open[gid] = gb
	}
	s.boMu.Unlock()
	for gid, gb := range open {
		gb.mu.Lock()
		if len(gb.pend) > 0 {
			now, due := s.cfg.Clock.Now(), gb.lastLog.Add(boardSlot)
			switch {
			case cause == flushExplicit || !now.Before(due):
				s.flushBoardLocked(gid, gb, cause, now)
				flushed++
			case next.IsZero() || due.Before(next):
				next = due
			}
		}
		if len(gb.pend) == 0 {
			s.boMu.Lock()
			delete(s.boOpen, gid)
			s.boMu.Unlock()
		}
		gb.mu.Unlock()
	}
	return flushed, next
}

// FlushBoardBatches logs every group's pending board batch now,
// whatever its deadline, and reports how many events went out. Tests
// and benchmarks call it for deterministic timing; the board loop
// flushes only the batches that are due.
func (s *Server) FlushBoardBatches() int {
	flushed, _ := s.flushOpenBoards(flushExplicit)
	return flushed
}

// boardLoop flushes board batches as their pacing deadlines come due. It
// sleeps to the earliest open batch's deadline and holds no timer at all
// while none is open — a batch opening in a group not yet tracked wakes
// it through boWake.
func (s *Server) boardLoop() {
	defer s.wg.Done()
	var deadline <-chan time.Time // nil while no batch is open
	for {
		select {
		case <-s.closed:
			return
		case <-s.boWake:
		case <-deadline:
		}
		deadline = nil
		if _, next := s.flushOpenBoards(flushDeadline); !next.IsZero() {
			deadline = s.cfg.Clock.After(next.Sub(s.cfg.Clock.Now()))
		}
	}
}

// CoalesceStats is kept for the benchmark module, which still reads it:
// it always reports (0, 0). Queue slots now ride each transition's own
// floor event, so there is no queue restatement left to count.
func (s *Server) CoalesceStats() (marked, logged int64) { return 0, 0 }

// BoardStormStats reports the board-op coalescing ratio: ops counts
// operations appended to boards, logged counts the events actually
// logged for them, inline or batched. logged/ops is what
// BenchmarkBoardStorm gates — an annotation storm must cost one ring
// slot and one fan-out per batch, not per stroke.
func (s *Server) BoardStormStats() (ops, logged int64) {
	for i := range s.boardFlushes {
		logged += s.boardFlushes[i].Load()
	}
	return s.boardOps.Load(), logged
}

package main

import (
	"fmt"

	"dmps/internal/protocol"
	"dmps/internal/whiteboard"
)

// floorChecker replays the logged floor events one session saw, in the
// order it saw them, and flags what the paper's exclusivity promise
// forbids: a second holder, a duplicate grant, a release by someone who
// does not hold the floor, and — when the session is one that must see
// everything — a hole in the per-class sequence. It is the benchmark's
// own checker and knows no excuses.
//
// The server re-reads the holder when it appends a floor event, so
// Holder is the floor's state at append time, not necessarily the state
// the event's own transition produced: a request is acknowledged before
// its "queued" event is appended, so a driver that releases on the ack
// can get the release's state change in first, and the "queued" event
// then already names the promoted member. The checker therefore follows
// transitions only — "granted" and "released" — and reads nothing into
// the holder that an event which moves no floor happens to carry. A
// release that promotes the head of the queue is logged as "released"
// with Holder naming the promoted member; there is no separate
// "granted".
type floorChecker struct {
	group string
	// dense requires CSeq to advance by exactly one: set for sessions
	// that stay connected, cleared for ones that drop and resume (a
	// resume may jump onto a state-bearing restatement).
	dense      bool
	started    bool
	lastCSeq   int64
	holder     string
	seen       int64
	violations []string
}

func (f *floorChecker) flag(cseq int64, format string, args ...any) {
	if len(f.violations) < 8 {
		f.violations = append(f.violations, fmt.Sprintf("%s cseq %d: ", f.group, cseq)+fmt.Sprintf(format, args...))
	}
}

// observe feeds one floor event in arrival order.
func (f *floorChecker) observe(cseq int64, ev protocol.FloorEventBody) {
	f.seen++
	if f.started && cseq <= f.lastCSeq {
		return // a backfill overlapping live delivery: the client drops it too
	}
	if f.started && f.dense && cseq != f.lastCSeq+1 {
		f.flag(cseq, "sequence hole after %d", f.lastCSeq)
	}
	known := f.started && (f.dense || cseq == f.lastCSeq+1)
	f.started, f.lastCSeq = true, cseq
	if !known {
		// First event, or one reached across a gap: it restates the
		// floor, and there is no earlier state to hold it against.
		f.holder = ev.Holder
		return
	}
	switch ev.Event {
	case "granted":
		switch {
		case f.holder == ev.Member:
			f.flag(cseq, "duplicate grant to %s", ev.Member)
		case f.holder != "":
			f.flag(cseq, "two holders: %s granted while %s holds", ev.Member, f.holder)
		}
		f.holder = ev.Member
	case "released":
		if f.holder != ev.Member {
			f.flag(cseq, "release by %s without a grant (holder %q)", ev.Member, f.holder)
		}
		f.holder = ev.Holder
	}
}

// checkBoard verifies a listener's board against the sequence the
// senders posted: want[i] is the data of the op with board sequence
// i+1. Order and count must both match.
func checkBoard(who string, board *whiteboard.Board, want []string) []string {
	ops := board.Ops()
	if len(ops) != len(want) {
		return []string{fmt.Sprintf("%s: board holds %d ops, senders posted %d", who, len(ops), len(want))}
	}
	for i, op := range ops {
		if op.Seq != int64(i+1) || op.Data != want[i] {
			return []string{fmt.Sprintf("%s: op %d is seq %d %q, want %q", who, i+1, op.Seq, op.Data, want[i])}
		}
	}
	return nil
}

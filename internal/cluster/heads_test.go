package cluster

import (
	"testing"
	"time"

	"dmps/internal/grouplog"
)

// TestHeadTableRepairPacing: a pair that stays behind is handed back
// for repair once per interval, the interval doubling from
// ackTimeoutBase to ackTimeoutMax, and back to ackTimeoutBase when its
// head moves; a peer the caller skips is left due; a caught-up pair
// owes nothing.
func TestHeadTableRepairPacing(t *testing.T) {
	t0 := time.Unix(100, 0)
	h := NewHeadTable(nil, nil)
	none := func(string) bool { return false }
	ev := func(gseq int64) grouplog.WALRecord {
		return grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "g", GSeq: gseq}
	}
	for g := int64(1); g <= 3; g++ {
		h.Shipped("p", ev(g), 0, t0)
	}
	h.Ack("p", "g", 1, t0) // the head moved to 1: 2 and 3 owed
	if n := h.Pending(); n != 2 {
		t.Fatalf("pending %d, want 2", n)
	}
	var repairs []time.Duration
	for at := time.Duration(0); at <= 8*time.Second; at += 10 * time.Millisecond {
		for _, r := range h.Due(t0.Add(at), none) {
			if r != (Repair{Peer: "p", Key: "g", Sent: 3, Acked: 1}) {
				t.Fatalf("repair %+v", r)
			}
			repairs = append(repairs, at)
		}
	}
	want := []time.Duration{200, 600, 1400, 3000, 5000, 7000}
	if len(repairs) != len(want) {
		t.Fatalf("repairs at %v, want at %v ms", repairs, want)
	}
	for i := range want {
		if repairs[i] != want[i]*time.Millisecond {
			t.Fatalf("repairs at %v, want at %v ms", repairs, want)
		}
	}
	// The head moves: the interval starts again from ackTimeoutBase.
	moved := t0.Add(8 * time.Second)
	h.Ack("p", "g", 2, moved)
	if got := h.Due(moved.Add(ackTimeoutBase-time.Millisecond), none); len(got) != 0 {
		t.Fatalf("repaired %v before the reset interval", got)
	}
	if got := h.Due(moved.Add(ackTimeoutBase), func(string) bool { return true }); len(got) != 0 {
		t.Fatalf("repaired a skipped peer: %v", got)
	}
	if got := h.Due(moved.Add(ackTimeoutBase), none); len(got) != 1 {
		t.Fatalf("due after the reset interval: %v", got)
	}
	h.Ack("p", "g", 3, moved)
	if n, got := h.Pending(), h.Due(moved.Add(time.Hour), none); n != 0 || len(got) != 0 {
		t.Fatalf("caught up, yet pending %d and due %v", n, got)
	}
}

// TestHeadTablePackagesAckByHead: a package record is owed until the
// peer acks a head at the GSeq it covers, a later package raises what is
// owed, and a drop's ack forgets the pair even when an older event's
// ack lands after it.
func TestHeadTablePackagesAckByHead(t *testing.T) {
	t0 := time.Unix(100, 0)
	h := NewHeadTable(nil, nil)
	pkg := func(gseq int64) grouplog.WALRecord {
		return grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "~m#1", GSeq: gseq}
	}
	h.Shipped("p", pkg(10), 0, t0)
	h.Shipped("p", pkg(11), 0, t0)
	h.Ack("p", "~m#1", 10, t0)
	if r := h.Due(t0.Add(time.Second), func(string) bool { return false }); len(r) != 1 || h.Pending() != 1 {
		t.Fatalf("package 11 not owed after package 10's ack: %v", r)
	}
	h.Shipped("p", grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "~m#1", GSeq: 12}, 0, t0)
	h.Shipped("p", grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: "m#1", GSeq: 13}, 0, t0)
	h.Ack("p", "~m#1", 12, t0) // the event's ack, behind the drop
	if n := h.Pending(); n != 1 {
		t.Fatalf("the drop not owed after the event's ack: pending %d", n)
	}
	h.Ack("p", "~m#1", 13, t0) // the drop's
	h.Ack("p", "~m#1", 12, t0) // a late copy of the event's
	if n := h.Pending(); n != 0 || len(h.pairs) != 0 {
		t.Fatalf("after the drop's ack: pending %d, pairs %v", n, h.pairs)
	}
}

// TestHeadTableForgetsAndFindsAhead: a pair in step is forgotten at its
// first Due past the base interval, and the next Shipped makes it again;
// a peer that acks a head past what it was shipped holds another
// history, and its pair is out of step — owed one package — until it
// acks what it was shipped.
func TestHeadTableForgetsAndFindsAhead(t *testing.T) {
	t0 := time.Unix(100, 0)
	h := NewHeadTable(nil, nil)
	none := func(string) bool { return false }
	ev := func(gseq int64) grouplog.WALRecord {
		return grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "g", GSeq: gseq}
	}
	h.Shipped("p", ev(1), 0, t0)
	h.Ack("p", "g", 1, t0)
	if got := h.Due(t0.Add(ackTimeoutBase-time.Millisecond), none); len(got) != 0 || len(h.pairs) != 1 {
		t.Fatalf("due %v, pairs %v before the base interval", got, h.pairs)
	}
	if got := h.Due(t0.Add(ackTimeoutBase), none); len(got) != 0 || len(h.pairs) != 0 {
		t.Fatalf("due %v, pairs %v: a pair in step and idle is kept", got, h.pairs)
	}
	h.Shipped("p", ev(2), 0, t0)
	h.Ack("p", "g", 9, t0) // the peer holds GSeqs 3 to 9 of another history
	if n := h.Pending(); n != 1 {
		t.Fatalf("a peer ahead owes %d, want one package", n)
	}
	if got := h.Due(t0.Add(ackTimeoutBase), none); len(got) != 1 || got[0] != (Repair{Peer: "p", Key: "g", Sent: 2, Acked: 9}) {
		t.Fatalf("due %v, want the pair ahead", got)
	}
	h.Shipped("p", grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "g", GSeq: 10}, 0, t0)
	h.Ack("p", "g", 10, t0)
	if n := h.Pending(); n != 0 {
		t.Fatalf("pending %d once the package past the peer's head is acked", n)
	}
}

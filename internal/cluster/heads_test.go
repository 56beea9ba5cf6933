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
		h.Shipped("p", ev(g), 0, 0, t0)
	}
	h.Ack("p", "g", 1, 0, t0) // the head moved to 1: 2 and 3 owed
	if n := h.Pending(); n != 2 {
		t.Fatalf("pending %d, want 2", n)
	}
	var repairs []time.Duration
	for at := time.Duration(0); at <= 8*time.Second; at += 10 * time.Millisecond {
		for _, r := range h.Due(t0.Add(at), none) {
			if r != (Repair{Peer: "p", Key: "g"}) {
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
	h.Ack("p", "g", 2, 0, moved)
	if got := h.Due(moved.Add(ackTimeoutBase-time.Millisecond), none); len(got) != 0 {
		t.Fatalf("repaired %v before the reset interval", got)
	}
	if got := h.Due(moved.Add(ackTimeoutBase), func(string) bool { return true }); len(got) != 0 {
		t.Fatalf("repaired a skipped peer: %v", got)
	}
	if got := h.Due(moved.Add(ackTimeoutBase), none); len(got) != 1 {
		t.Fatalf("due after the reset interval: %v", got)
	}
	h.Ack("p", "g", 3, 0, moved)
	if n, got := h.Pending(), h.Due(moved.Add(time.Hour), none); n != 0 || len(got) != 0 {
		t.Fatalf("caught up, yet pending %d and due %v", n, got)
	}
}

// TestHeadTablePackagesAckByID: a package record is owed until its own
// ID is acked, a later package replaces the one owed, and a drop's ack
// forgets the pair even when an older event's ack lands after it.
func TestHeadTablePackagesAckByID(t *testing.T) {
	t0 := time.Unix(100, 0)
	h := NewHeadTable(nil, nil)
	pkg := grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "~m#1"}
	h.Shipped("p", pkg, 10, 0, t0)
	h.Shipped("p", pkg, 11, 0, t0)
	h.Ack("p", "~m#1", 0, 10, t0)
	if r := h.Due(t0.Add(time.Second), func(string) bool { return false }); len(r) != 1 || h.Pending() != 1 {
		t.Fatalf("package 11 not owed after package 10's ack: %v", r)
	}
	h.Shipped("p", grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "~m#1", GSeq: 1}, 0, 0, t0)
	h.Shipped("p", grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: "m#1"}, 12, 0, t0)
	h.Ack("p", "~m#1", 1, 0, t0)  // the event's ack, behind the drop
	h.Ack("p", "~m#1", 0, 12, t0) // the drop's
	if n := h.Pending(); n != 0 || len(h.pairs) != 0 {
		t.Fatalf("after the drop's ack: pending %d, pairs %v", n, h.pairs)
	}
}

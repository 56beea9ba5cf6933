package cluster

import (
	"fmt"
	"testing"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

// memberEvent is a stamped member-log event (an invitation) at gseq, as
// the home node fans it out and replicates it.
func memberEvent(t *testing.T, gseq int64) []byte {
	t.Helper()
	msg := protocol.MustNew(protocol.TInviteEvent, protocol.InviteEventBody{InviteID: gseq, Group: "g", From: "bob#1"})
	msg.Class, _ = protocol.ClassOf(protocol.TInviteEvent)
	msg.State, msg.GSeq, msg.CSeq = true, gseq, gseq
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// The one rule every replicated record obeys — roster, member home,
// member drop, event alike — is its key's GSeq: a peer link that fails
// is re-dialled while its old connection may still be read out, so a
// record can arrive after one the owner made later, and the store must
// keep the newer state. A partition that changes owner keeps its log,
// so the new owner's records continue its GSeqs; a package is taken if
// it covers at least the head, a drop if it is past it; and a drop
// leaves a tombstone at its GSeq that refuses both a late home and a
// late event of the dropped member's log.

var (
	alice = protocol.NodeMemberInfo{ID: "alice#1", Name: "alice"}
	bob   = protocol.NodeMemberInfo{ID: "bob#1", Name: "bob"}
)

// aliceHome is alice's member-home key.
const aliceHome = "~alice#1"

type replicaOp func(t *testing.T, s *ReplicaStore)

type versionCase struct {
	name string
	ops  []replicaOp
	want func(s *ReplicaStore) string
}

func roster(chair string, members ...protocol.NodeMemberInfo) protocol.TakeoverBody {
	return protocol.TakeoverBody{Key: "g", Chair: chair, Members: members}
}

func homeToken(tok string) protocol.TakeoverBody {
	return protocol.TakeoverBody{Key: aliceHome, Member: &alice, Token: tok}
}

// applyRecord feeds the store one record, which must read back.
func applyRecord(t *testing.T, s *ReplicaStore, rec grouplog.WALRecord, err error) int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	head, err := s.ApplyRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return head
}

// apply feeds the store p as a package record covering gseq.
func apply(p protocol.TakeoverBody, gseq int64) replicaOp {
	return func(t *testing.T, s *ReplicaStore) {
		p.GSeq = gseq
		rec, err := protocol.PackageRecord(p)
		applyRecord(t, s, rec, err)
	}
}

// entry feeds the store p's directory part as the directory entry at
// gseq.
func entry(p protocol.TakeoverBody, gseq int64) replicaOp {
	return func(t *testing.T, s *ReplicaStore) {
		rec, err := protocol.DirectoryEntry(p, gseq, gseq)
		applyRecord(t, s, rec, err)
	}
}

func dropHome(gseq int64) replicaOp {
	return func(t *testing.T, s *ReplicaStore) {
		applyRecord(t, s, grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: aliceHome[1:], GSeq: gseq}, nil)
	}
}

func event(gseq int64) replicaOp {
	return func(t *testing.T, s *ReplicaStore) { s.ApplyEvent(aliceHome, memberEvent(t, gseq), nil) }
}

func holds(tok string) func(*ReplicaStore) string {
	return func(s *ReplicaStore) string {
		if key, ok := s.KeyOfToken(tok); !ok || key != aliceHome {
			return fmt.Sprintf("token %q does not resolve to %s (keys %v)", tok, aliceHome, s.Keys())
		}
		return ""
	}
}

func homeGone(s *ReplicaStore) string {
	if s.Has(aliceHome) || s.Head(aliceHome) != 0 {
		return fmt.Sprintf("dropped member still held: keys %v, log head %d", s.Keys(), s.Head(aliceHome))
	}
	return ""
}

func runVersionCases(t *testing.T, cases []versionCase) {
	t.Helper()
	for _, tc := range cases {
		s := NewReplicaStore(0)
		for _, o := range tc.ops {
			o(t, s)
		}
		if msg := tc.want(s); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

// TestApplyMembersDropsStaleRoster replays the race that used to strand
// a member after failover: the owner ships roster 1 (alice), then
// roster 2 (alice, bob), and roster 1 arrives again afterwards. The
// replica must keep roster 2. A roster from the partition's new owner
// continues the key's GSeqs, and applies.
func TestApplyMembersDropsStaleRoster(t *testing.T) {
	runVersionCases(t, []versionCase{
		{
			name: "a late resend of an older roster keeps the newer one",
			ops: []replicaOp{
				apply(roster("alice#1", alice), 10),
				apply(roster("alice#1", alice, bob), 11),
				apply(roster("alice#1", alice), 10),
			},
			want: func(s *ReplicaStore) string {
				if p, _ := s.Take("g"); len(p.Members) != 2 {
					return fmt.Sprintf("roster %v, want alice and bob", p.Members)
				}
				return ""
			},
		},
		{
			name: "a roster from the partition's new owner applies whatever its id",
			ops: []replicaOp{
				apply(roster("alice#1", alice, bob), 12),
				apply(roster("bob#1", bob), 13),
			},
			want: func(s *ReplicaStore) string {
				if p, _ := s.Take("g"); len(p.Members) != 1 || p.Chair != "bob#1" {
					return fmt.Sprintf("chair %q, roster %v", p.Chair, p.Members)
				}
				return ""
			},
		},
	})
}

// TestMemberHomeForwardsDropStale replays what a late forward can do
// to member homes: a home, its drop, and then the home again.
// The member must stay dropped, or a reaped member's resume token comes
// back to life on the successor. Likewise an older token must not land
// over a newer one. The new owner's forwards continue the key's GSeqs,
// and a migration's package covering the head applies.
func TestMemberHomeForwardsDropStale(t *testing.T) {
	runVersionCases(t, []versionCase{
		{
			name: "a home resent after its drop stays dropped",
			ops:  []replicaOp{apply(homeToken("tok-old"), 5), dropHome(6), apply(homeToken("tok-old"), 5)},
			want: homeGone,
		},
		{
			name: "a resent home does not put an old token over a new one",
			ops:  []replicaOp{apply(homeToken("tok-1"), 7), apply(homeToken("tok-2"), 8), apply(homeToken("tok-1"), 7)},
			want: holds("tok-2"),
		},
		{
			name: "a stale drop does not retract a newer home",
			ops:  []replicaOp{apply(homeToken("tok-2"), 8), dropHome(7)},
			want: holds("tok-2"),
		},
		{
			name: "different senders are unordered",
			ops:  []replicaOp{apply(homeToken("tok-n1"), 9), apply(homeToken("tok-n2"), 10)},
			want: holds("tok-n2"),
		},
		{
			name: "id 0 is never stale",
			ops:  []replicaOp{apply(homeToken("tok-1"), 7), apply(homeToken("tok-a"), 7), apply(homeToken("tok-migrated"), 7)},
			want: holds("tok-migrated"),
		},
	})
}

// TestReplicaVersionRule: the member log follows its home, by GSeq
// alone — the drop takes the log's last GSeq and the log with it, its
// tombstone refuses a late event of that log and any past it (a dropped
// log has ended), and a newer home lifts the tombstone: a node that
// restarts without its journal may mint the member's ID again, and its
// package, past the head the store acked, replaces the tombstone.
func TestReplicaVersionRule(t *testing.T) {
	runVersionCases(t, []versionCase{
		{
			name: "a drop takes the member log with it",
			ops:  []replicaOp{entry(homeToken("tok"), 1), event(2), dropHome(3)},
			want: homeGone,
		},
		{
			name: "a tombstone refuses a late member-log event",
			ops:  []replicaOp{entry(homeToken("tok"), 1), event(2), dropHome(3), event(2), event(4)},
			want: homeGone,
		},
		{
			name: "a newer home lifts the tombstone",
			ops:  []replicaOp{entry(homeToken("tok"), 1), dropHome(2), apply(homeToken("tok-new"), 3), event(4)},
			want: func(s *ReplicaStore) string {
				if s.Head(aliceHome) != 4 {
					return fmt.Sprintf("log head %d after the member came back, want 4", s.Head(aliceHome))
				}
				return holds("tok-new")(s)
			},
		},
	})
}

// TestLateDirectoryEntryIsRefused: a directory entry is a record of its
// key's log like any event. Entries 1 and 2 land; entry 1 delivered
// again late (as from a re-dialled link's old connection) is refused by
// the head rule, and the roster stays entry 2's (each entry keeps its
// place without its bytes, as in the owner's log).
func TestLateDirectoryEntryIsRefused(t *testing.T) {
	s := NewReplicaStore(0)
	for _, o := range []replicaOp{entry(roster("alice#1", alice), 1), entry(roster("alice#1", alice, bob), 2)} {
		o(t, s)
	}
	late, err := protocol.DirectoryEntry(roster("alice#1", alice), 1, 1)
	if head := applyRecord(t, s, late, err); head != 2 {
		t.Fatalf("the late entry answered head %d, want 2", head)
	}
	if p, _ := s.Take("g"); len(p.Members) != 2 || p.GSeq != 2 || len(p.Events) != 2 || p.Events[0].Wire != nil || p.Events[1].Wire != nil {
		t.Fatalf("after the late entry: roster %v, head %d, entries %+v; want alice and bob at 2, entries without bytes", p.Members, p.GSeq, p.Events)
	}
}

// TestTombstonesAreBounded: drops leave tombstones, and only the newest
// maxTombstones of them are kept.
func TestTombstonesAreBounded(t *testing.T) {
	s := NewReplicaStore(0)
	for i := 0; i < maxTombstones+10; i++ {
		key := fmt.Sprintf("~m#%d", i)
		entry(protocol.TakeoverBody{Key: key, Member: &protocol.NodeMemberInfo{ID: key[1:]}, Token: "tok"}, 1)(t, s)
		applyRecord(t, s, grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: key[1:], GSeq: 2}, nil)
	}
	if len(s.dropped) != maxTombstones || len(s.tombs) != maxTombstones {
		t.Fatalf("%d dropped keys and %d tombstones kept, want %d", len(s.dropped), len(s.tombs), maxTombstones)
	}
}

// TestReplicaHoldsADenseLog: a store extends a key's log only at its
// head+1. Fed GSeq 1–5, then 7, then 6, it refuses 7 — its answer names
// head 5, so the owner repairs from 6 — and holds 1–6 with head 6. A
// store that took 7 would ack a log with a hole that a takeover
// installs.
func TestReplicaHoldsADenseLog(t *testing.T) {
	s := NewReplicaStore(0)
	for g := int64(1); g <= 5; g++ {
		if head := s.ApplyEvent(aliceHome, memberEvent(t, g), nil); head != g {
			t.Fatalf("GSeq %d answered head %d", g, head)
		}
	}
	if head := s.ApplyEvent(aliceHome, memberEvent(t, 7), nil); head != 5 || s.Head(aliceHome) != 5 {
		t.Fatalf("GSeq 7 past head 5: answered head %d, store head %d, want 5 and 5", head, s.Head(aliceHome))
	}
	if head := s.ApplyEvent(aliceHome, memberEvent(t, 6), nil); head != 6 {
		t.Fatalf("GSeq 6 answered head %d, want 6", head)
	}
	if head := s.ApplyEvent(aliceHome, memberEvent(t, 3), nil); head != 6 {
		t.Fatalf("duplicate GSeq 3 answered head %d, want 6", head)
	}
	p, _ := s.Take(aliceHome)
	var held []int64
	for _, e := range p.Events {
		held = append(held, e.GSeq)
	}
	if fmt.Sprint(held) != "[1 2 3 4 5 6]" {
		t.Fatalf("store holds GSeqs %v, want [1 2 3 4 5 6]", held)
	}
}

package cluster

import (
	"fmt"
	"testing"

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

// The version rule every replicated package and drop obeys — roster,
// member home, member drop alike: a peer link that fails is re-dialled
// while its old connection may still be read out, so a forward can
// arrive after one the same sender made later, and the store must keep
// the newer state. Forwards
// of different senders are not ordered (the partition changed owner),
// an unidentified package (id 0: a migration's, ordered by epoch
// instead) is never stale, and a drop leaves a tombstone that refuses
// both a late home and a late event of the dropped member's log.

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

func apply(p protocol.TakeoverBody, from string, id int64) replicaOp {
	return func(_ *testing.T, s *ReplicaStore) { s.Apply(p, from, id) }
}

func dropHome(from string, id int64) replicaOp {
	return func(_ *testing.T, s *ReplicaStore) { s.Drop(aliceHome, from, id) }
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
// replica must keep roster 2. A roster from a different sender (the
// partition changed owner) always applies, whatever its ID.
func TestApplyMembersDropsStaleRoster(t *testing.T) {
	runVersionCases(t, []versionCase{
		{
			name: "a late resend of an older roster keeps the newer one",
			ops: []replicaOp{
				apply(roster("alice#1", alice), "n1", 10),
				apply(roster("alice#1", alice, bob), "n1", 11),
				apply(roster("alice#1", alice), "n1", 10),
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
				apply(roster("alice#1", alice, bob), "n1", 12),
				apply(roster("bob#1", bob), "n2", 3),
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
// over a newer one. Forwards of another sender, and a migration's
// unidentified install, always apply.
func TestMemberHomeForwardsDropStale(t *testing.T) {
	runVersionCases(t, []versionCase{
		{
			name: "a home resent after its drop stays dropped",
			ops:  []replicaOp{apply(homeToken("tok-old"), "n1", 5), dropHome("n1", 6), apply(homeToken("tok-old"), "n1", 5)},
			want: homeGone,
		},
		{
			name: "a resent home does not put an old token over a new one",
			ops:  []replicaOp{apply(homeToken("tok-1"), "n1", 7), apply(homeToken("tok-2"), "n1", 8), apply(homeToken("tok-1"), "n1", 7)},
			want: holds("tok-2"),
		},
		{
			name: "a stale drop does not retract a newer home",
			ops:  []replicaOp{apply(homeToken("tok-2"), "n1", 8), dropHome("n1", 7)},
			want: holds("tok-2"),
		},
		{
			name: "different senders are unordered",
			ops:  []replicaOp{apply(homeToken("tok-n1"), "n1", 9), apply(homeToken("tok-n2"), "n2", 1)},
			want: holds("tok-n2"),
		},
		{
			name: "id 0 is never stale",
			ops:  []replicaOp{apply(homeToken("tok-1"), "n1", 7), apply(homeToken("tok-a"), "", 0), apply(homeToken("tok-migrated"), "", 0)},
			want: holds("tok-migrated"),
		},
	})
}

// TestReplicaVersionRule: the member log follows its home — a drop takes
// the log with it, its tombstone refuses a late event of that log, and a
// newer home lifts the tombstone.
func TestReplicaVersionRule(t *testing.T) {
	runVersionCases(t, []versionCase{
		{
			name: "a drop takes the member log with it",
			ops:  []replicaOp{apply(homeToken("tok"), "n1", 5), event(1), dropHome("n1", 6)},
			want: homeGone,
		},
		{
			name: "a tombstone refuses a late member-log event",
			ops:  []replicaOp{apply(homeToken("tok"), "n1", 5), event(1), dropHome("n1", 6), event(2)},
			want: homeGone,
		},
		{
			name: "a newer home lifts the tombstone",
			ops:  []replicaOp{apply(homeToken("tok"), "n1", 5), dropHome("n1", 6), apply(homeToken("tok-new"), "n1", 7), event(1)},
			want: func(s *ReplicaStore) string {
				if s.Head(aliceHome) != 1 {
					return fmt.Sprintf("log head %d after the member came back, want 1", s.Head(aliceHome))
				}
				return holds("tok-new")(s)
			},
		},
	})
}

// TestAckTableIDsRiseAcrossRestarts: a new table — a restarted sender —
// mints IDs above everything the table before it minted, which is what
// lets receivers order one sender's forwards by ID alone.
func TestAckTableIDsRiseAcrossRestarts(t *testing.T) {
	before := NewAckTable(nil)
	var last int64
	for i := 0; i < 1000; i++ {
		last = before.NextID()
	}
	if first := NewAckTable(nil).NextID(); first <= last {
		t.Fatalf("restarted sender's first ID %d does not exceed its previous life's %d", first, last)
	}
}

// TestTombstonesAreBounded: drops leave version tombstones, and only
// the newest maxTombstones of them are kept.
func TestTombstonesAreBounded(t *testing.T) {
	s := NewReplicaStore(0)
	for i := 0; i < maxTombstones+10; i++ {
		key := fmt.Sprintf("~m#%d", i)
		s.Apply(protocol.TakeoverBody{Key: key, Member: &protocol.NodeMemberInfo{ID: key[1:]}, Token: "tok"}, "n1", int64(2*i+1))
		s.Drop(key, "n1", int64(2*i+2))
	}
	if len(s.versions) != maxTombstones || len(s.tombs) != maxTombstones {
		t.Fatalf("%d versions and %d tombstones kept, want %d", len(s.versions), len(s.tombs), maxTombstones)
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

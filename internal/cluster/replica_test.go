package cluster

import (
	"fmt"
	"testing"

	"dmps/internal/protocol"
)

// TestApplyMembersDropsStaleRoster replays the race that used to strand
// a member after failover: the owner ships roster 1 (alice), then
// roster 2 (alice, bob), and roster 1 arrives again afterwards — an
// unacknowledged forward resent by the ack table. The replica must keep
// roster 2. A roster from a different sender (the partition changed
// owner) always applies, whatever its ID.
func TestApplyMembersDropsStaleRoster(t *testing.T) {
	alice := protocol.NodeMemberInfo{ID: "alice#1", Name: "alice"}
	bob := protocol.NodeMemberInfo{ID: "bob#1", Name: "bob"}
	s := NewReplicaStore(0)
	s.ApplyMembers("g", "alice#1", []protocol.NodeMemberInfo{alice}, "n1", 10)
	s.ApplyMembers("g", "alice#1", []protocol.NodeMemberInfo{alice, bob}, "n1", 11)
	s.ApplyMembers("g", "alice#1", []protocol.NodeMemberInfo{alice}, "n1", 10)
	if rep, _ := s.Take("g"); len(rep.Members) != 2 {
		t.Fatalf("roster after a late resend of an older forward: %v, want alice and bob", rep.Members)
	}
	s.ApplyMembers("g", "alice#1", []protocol.NodeMemberInfo{alice, bob}, "n1", 12)
	s.ApplyMembers("g", "bob#1", []protocol.NodeMemberInfo{bob}, "n2", 3)
	if rep, _ := s.Take("g"); len(rep.Members) != 1 || rep.Chair != "bob#1" {
		t.Fatalf("roster from the partition's new owner was not applied: chair %q, %v", rep.Chair, rep.Members)
	}
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

// TestMemberHomeForwardsDropStale replays what the ack table's resend
// can do to member homes: a home (forward 5), its drop (6), and then the
// home again — unacknowledged in time and resent. The member must stay
// dropped, or a reaped member's resume token comes back to life on the
// successor. Likewise an older token must not land over a newer one.
// Forwards of another sender, and a migration's unidentified install,
// always apply.
func TestMemberHomeForwardsDropStale(t *testing.T) {
	alice := protocol.NodeMemberInfo{ID: "alice#1", Name: "alice"}
	s := NewReplicaStore(0)
	s.ApplyMemberHome(alice, "tok-old", "n1", 5)
	s.DropMemberHome("alice#1", "n1", 6)
	s.ApplyMemberHome(alice, "tok-old", "n1", 5)
	if _, ok := s.MemberByToken("tok-old"); ok {
		t.Fatal("a resent member_home brought a dropped member back")
	}
	if len(s.MemberIDs()) != 0 {
		t.Fatalf("members after drop + stale home: %v", s.MemberIDs())
	}

	s.ApplyMemberHome(alice, "tok-1", "n1", 7)
	s.ApplyMemberHome(alice, "tok-2", "n1", 8)
	s.ApplyMemberHome(alice, "tok-1", "n1", 7)
	if _, ok := s.MemberByToken("tok-2"); !ok {
		t.Fatal("a resent member_home put an old token over the new one")
	}
	s.DropMemberHome("alice#1", "n1", 7)
	if _, ok := s.MemberByToken("tok-2"); !ok {
		t.Fatal("a stale member_drop retracted a newer home")
	}

	s.ApplyMemberHome(alice, "tok-n2", "n2", 1)
	if _, ok := s.MemberByToken("tok-n2"); !ok {
		t.Fatal("a home from the member's new home node was not applied")
	}
	s.ApplyMemberHome(alice, "tok-migrated", "", 0)
	if _, ok := s.MemberByToken("tok-migrated"); !ok {
		t.Fatal("a takeover package's member home was not installed")
	}
}

// TestTombstonesAreBounded: drops leave version tombstones, and only
// the newest maxTombstones of them are kept.
func TestTombstonesAreBounded(t *testing.T) {
	s := NewReplicaStore(0)
	for i := 0; i < maxTombstones+10; i++ {
		id := fmt.Sprintf("m#%d", i)
		s.ApplyMemberHome(protocol.NodeMemberInfo{ID: id}, "tok", "n1", int64(2*i+1))
		s.DropMemberHome(id, "n1", int64(2*i+2))
	}
	if len(s.homes) != maxTombstones || len(s.tombs) != maxTombstones {
		t.Fatalf("%d versions and %d tombstones kept, want %d", len(s.homes), len(s.tombs), maxTombstones)
	}
}

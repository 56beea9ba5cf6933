package cluster

import (
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

package cluster_test

import (
	"slices"
	"testing"

	"dmps/internal/core"
	"dmps/internal/floor"
	"dmps/internal/group"
)

// TestTrafficAdoptionSurvivesTheAdopter: at RF 2, a group's owner dies
// and its ring successor adopts the group on the next request — and
// then the adopter dies too. The adoption itself must have been
// replicated to the adopter's own successor, so the third node still
// serves the group's roster with its floor holder unchanged. The
// members are homed on that third node, so only the group moves.
func TestTrafficAdoptionSurvivesTheAdopter(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{Options: core.Options{Seed: 19}, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	alice, err := cl.NewClientOn("hostA", pickKey(t, 3, "alicehome", 2), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.NewClientOn("hostB", pickKey(t, 3, "bobhome", 2), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 3, "adopted", 0)
	for _, c := range []interface{ Join(string) error }{alice, bob} {
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := alice.RequestFloor(g, floor.EqualControl, "")
	if err != nil || !dec.Granted {
		t.Fatalf("grant: dec=%+v err=%v", dec, err)
	}
	waitFor(t, "the owner's forwards acked", func() bool {
		return cl.Nodes[1].ReplicaHead(g) >= 3 && cl.Nodes[0].ReplicationPending() == 0
	})

	// The owner dies; the next request makes its successor adopt g.
	cl.KillNode(0)
	waitFor(t, "node 1 adopts g on traffic", func() bool {
		return alice.Chat(g, "after the owner") == nil
	})
	waitFor(t, "the adoption's forwards acked", func() bool {
		return cl.Nodes[1].ReplicationPending() == 0
	})

	// The adopter dies as well; node 2 must take g over from the
	// adoption node 1 replicated to it.
	cl.KillNode(1)
	waitFor(t, "node 2 serves g", func() bool {
		return alice.Chat(g, "after the adopter") == nil
	})
	members, err := cl.Nodes[2].Registry().GroupMemberIDs(g)
	if err != nil {
		t.Fatalf("node 2 has no roster for g: %v", err)
	}
	for _, c := range []string{alice.MemberID(), bob.MemberID()} {
		if !slices.Contains(members, group.MemberID(c)) {
			t.Errorf("node 2's roster %v lacks %s", members, c)
		}
	}
	if holder := cl.Nodes[2].FloorController().Snapshot(g).Holder; holder != group.MemberID(alice.MemberID()) {
		t.Errorf("node 2's floor holder = %q, want %s", holder, alice.MemberID())
	}
	if err := bob.Chat(g, "not the holder"); err == nil {
		t.Error("bob chatted over alice's Equal Control floor on node 2")
	}
}

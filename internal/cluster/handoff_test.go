package cluster_test

import (
	"sync/atomic"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/core"
	"dmps/internal/floor"
	"dmps/internal/group"
)

// TestPartitionHandoffMidFloorHold kills a node while a member holds
// the floor of one of its groups, with another member queued behind.
// The ring successor must restore holder AND queue from the replicated
// state — the canonical wire events redact queue membership, so this
// exercises the floor snapshot — and both clients must converge through the
// router's node_moved push with zero duplicate grants.
func TestPartitionHandoffMidFloorHold(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{Options: core.Options{Seed: 11}, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Both members homed on node 0, the group owned by node 1 — killing
	// node 1 moves the partition while the members' home sessions (and
	// tokens, and member logs) survive on node 0.
	alice, err := cl.NewClientOn("hostA", pickKey(t, 2, "holder", 0), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.NewClientOn("hostB", pickKey(t, 2, "queued", 0), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 2, "doomed", 1)

	// Count floor grants bob observes; exactly one per actual grant.
	var aliceGrants, bobGrants atomic.Int64
	events := bob.Subscribe(client.FloorEvents)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Group == g && ev.Floor.Event == "granted" {
				if ev.Floor.Member == alice.MemberID() || ev.Floor.Holder == alice.MemberID() {
					aliceGrants.Add(1)
				}
				if ev.Floor.Member == bob.MemberID() {
					bobGrants.Add(1)
				}
			}
		}
	}()

	for _, c := range []*client.Client{alice, bob} {
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := alice.RequestFloor(g, floor.EqualControl, "")
	if err != nil || !dec.Granted {
		t.Fatalf("alice grant: dec=%+v err=%v", dec, err)
	}
	if dec, err = bob.RequestFloor(g, floor.EqualControl, ""); err != nil || dec.Granted || dec.QueuePosition != 1 {
		t.Fatalf("bob queue: dec=%+v err=%v", dec, err)
	}
	waitFor(t, "bob sees alice's grant", func() bool { return bob.Holder(g) == alice.MemberID() })

	// Let replication land on the successor before the kill: the two
	// joins' directory entries, the grant and the queued event at least.
	waitFor(t, "replication at successor", func() bool {
		return cl.Nodes[0].ReplicaHead(g) >= 4
	})

	cl.KillNode(1)

	// The router notices, pushes node_moved, the clients backfill, the
	// successor adopts: holder and queue must be restored — not re-run.
	waitFor(t, "successor restores holder and queue", func() bool {
		fs := cl.Nodes[0].FloorController().Snapshot(g)
		return string(fs.Holder) == alice.MemberID() &&
			len(fs.Queue) == 1 && fs.Queue[0] == group.MemberID(bob.MemberID())
	})
	waitFor(t, "clients converge on the surviving node", func() bool {
		return bob.Holder(g) == alice.MemberID() && alice.Holder(g) == alice.MemberID()
	})

	// The restored holder asking again is a repeat request: acked as
	// granted, logged as nothing — bob sees no second grant for her.
	if dec, err := alice.RequestFloor(g, floor.EqualControl, ""); err != nil || !dec.Granted || dec.Holder != alice.MemberID() {
		t.Fatalf("alice's re-request after handoff: dec=%+v err=%v, want granted", dec, err)
	}

	// The queue survived the handoff: a release on the new owner
	// promotes bob, proving queue state (which the wire events redact)
	// crossed through the floor snapshot.
	if err := alice.ReleaseFloor(g); err != nil {
		t.Fatalf("release after handoff: %v", err)
	}
	waitFor(t, "bob promoted after handoff release", func() bool {
		return bob.Holder(g) == bob.MemberID()
	})

	// Board traffic works against the adopted partition too.
	if err := bob.Chat(g, "post-handoff"); err != nil {
		t.Fatalf("chat after handoff: %v", err)
	}
	waitFor(t, "post-handoff board convergence", func() bool {
		return alice.Board(g).Seq() == 1
	})

	// Give any stray re-deliveries a moment, then assert zero duplicate
	// grants: one for alice (the original), one for bob (the promotion).
	time.Sleep(200 * time.Millisecond)
	bob.Close()
	<-done
	if got := aliceGrants.Load(); got != 1 {
		t.Errorf("bob observed %d grants for alice; the handoff must restore, not re-grant", got)
	}
	// Bob's promotion rides the "released" event (new holder), never a
	// fresh grant: any "granted" for bob would be a duplicate the
	// handoff invented.
	if got := bobGrants.Load(); got != 0 {
		t.Errorf("bob observed %d spurious grants for himself across the handoff", got)
	}
}

// TestModeratedApprovalSurvivesHandoff kills the owner of a moderated
// group after the chair's approval of a queued member was acked. The
// approval is floor state like the holder and the queue: the ring
// successor must restore it, and the chair's next release must grant
// the approved member rather than free the floor.
func TestModeratedApprovalSurvivesHandoff(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{Options: core.Options{Seed: 12}, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	alice, err := cl.NewClientOn("hostA", pickKey(t, 2, "chair", 0), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.NewClientOn("hostB", pickKey(t, 2, "approved", 0), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 2, "seminar", 1)
	for _, c := range []*client.Client{alice, bob} {
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	if dec, err := alice.RequestFloor(g, floor.ModeratedQueue, ""); err != nil || !dec.Granted {
		t.Fatalf("chair grant: dec=%+v err=%v", dec, err)
	}
	if dec, err := bob.RequestFloor(g, floor.ModeratedQueue, ""); err != nil || dec.Granted || dec.QueuePosition != 1 {
		t.Fatalf("bob queue: dec=%+v err=%v", dec, err)
	}
	if dec, err := alice.ApproveFloor(g, bob.MemberID()); err != nil || dec.Granted {
		t.Fatalf("approval: dec=%+v err=%v", dec, err)
	}
	// The two joins' directory entries, the grant, the queued request
	// and the approval.
	waitFor(t, "replication at successor", func() bool {
		return cl.Nodes[0].ReplicaHead(g) >= 5
	})

	cl.KillNode(1)

	waitFor(t, "successor restores the approval", func() bool {
		fs := cl.Nodes[0].FloorController().Snapshot(g)
		return string(fs.Holder) == alice.MemberID() &&
			len(fs.Approved) == 1 && fs.Approved[0] == group.MemberID(bob.MemberID())
	})
	if err := alice.ReleaseFloor(g); err != nil {
		t.Fatalf("release after handoff: %v", err)
	}
	waitFor(t, "the approved member granted by the release", func() bool {
		return bob.Holder(g) == bob.MemberID()
	})
}

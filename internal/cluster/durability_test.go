// Durability drills for the replicated cluster plane: what RF buys
// (and what it does not), write-ahead-log replay across a full-cluster
// restart, and the migration that brings a recovered node's partitions
// home under a new epoch. All run the real router + node servers on
// the simulated network through the ordinary client library.
package cluster_test

import (
	"slices"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/core"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/netsim"
)

// reconnect rides a client across a dead home node: Drop severs the
// session, then Reconnect retries until the token resume lands on a
// live ring successor (the routing tier needs a probe cycle or two to
// notice the death first).
func reconnect(t *testing.T, c *client.Client) {
	t.Helper()
	c.Drop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Reconnect()
		if err == nil {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("reconnect: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// reinstate drives the router's recovery for any node it marked down
// until the whole ring is up again — the in-test stand-in for the
// production router's -recover prober.
func reinstate(t *testing.T, cl *core.Cluster) {
	t.Helper()
	waitFor(t, "router reinstates the ring", func() bool {
		up := true
		for i := range cl.Nodes {
			if cl.Router.Map().Down(i) {
				_ = cl.Router.Recover(i)
				up = false
			}
		}
		return up
	})
}

// TestDoubleFailureRF2FailsLoudly kills both replicas of a partition
// under the default RF=2: the group's primary and its ring successor.
// The surviving node holds no replica, so it must answer node_moved —
// clients see loud errors — and must never fabricate floor or log
// state for a partition it cannot restore.
func TestDoubleFailureRF2FailsLoudly(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{Options: core.Options{Seed: 13}, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	alice, err := cl.NewClientOn("hostA", pickKey(t, 3, "survivorhome", 0), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 3, "doomedtwice", 1)
	if err := alice.Join(g); err != nil {
		t.Fatal(err)
	}
	dec, err := alice.RequestFloor(g, floor.EqualControl, "")
	if err != nil || !dec.Granted {
		t.Fatalf("grant: dec=%+v err=%v", dec, err)
	}
	if err := alice.Chat(g, "before the blast"); err != nil {
		t.Fatal(err)
	}
	// RF=2 puts the only replica on the ring successor (node 2): the
	// join's directory entry and the grant at least. The surviving node 0
	// must hold nothing for g.
	waitFor(t, "replica at the successor", func() bool {
		return cl.Nodes[2].ReplicaHead(g) >= 2
	})
	if head := cl.Nodes[0].ReplicaHead(g); head != 0 {
		t.Fatalf("RF=2 replicated to node 0 (head %d); the drill needs it blind", head)
	}

	// The successor dies first: killed after the owner, it could adopt
	// g on the traffic the owner's death re-routes to it, and replicate
	// that adoption to node 0 before it went — a partition that, rightly,
	// survives.
	cl.KillNode(2)
	cl.KillNode(1)

	// Both copies are gone: partition traffic must start failing loudly
	// once the router notices, and must keep failing.
	waitFor(t, "ops against the lost partition fail", func() bool {
		return alice.Chat(g, "anyone there?") != nil
	})
	charlie, err := cl.NewClientOn("hostC", pickKey(t, 3, "lateobserver", 0), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := charlie.Join(g); err == nil {
		t.Error("join of a fully lost partition succeeded; it must be refused, not re-created empty")
	}

	// The surviving node answered node_moved throughout: no adopted
	// holder, no adopted queue, no invented log.
	if fs := cl.Nodes[0].FloorController().Snapshot(g); fs.Holder != "" || len(fs.Queue) != 0 {
		t.Errorf("node 0 fabricated floor state for a partition it never replicated: holder=%q queue=%v", fs.Holder, fs.Queue)
	}
	if head := cl.Nodes[0].ReplicaHead(g); head != 0 {
		t.Errorf("node 0 fabricated log state: replica head %d", head)
	}
}

// TestRF3SurvivesDoubleFailure runs the acceptance drill: with RF=3 on
// a 3-node ring, killing any two nodes mid-floor-hold loses zero
// logged events and produces zero duplicate grants. Here the two dead
// nodes are the group's primary and first successor AND the home nodes
// of both the holder and the queued member, so the one survivor must
// restore the partition and adopt both member homes from its replicas.
func TestRF3SurvivesDoubleFailure(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{
		Options: core.Options{Seed: 17}, Nodes: 3, ReplicationFactor: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	watcher, err := cl.NewClientOn("hostW", pickKey(t, 3, "watchhome", 0), "participant", 1)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := cl.NewClientOn("hostA", pickKey(t, 3, "holderhome", 1), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.NewClientOn("hostB", pickKey(t, 3, "queuedhome", 2), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 3, "hardygroup", 1)

	// Count grants the surviving watcher observes across the whole
	// drill: exactly one (alice's), never a re-grant from the restore.
	var aliceGrants, bobGrants int
	events := watcher.Subscribe(client.FloorEvents)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Group == g && ev.Floor.Event == "granted" {
				if ev.Floor.Member == alice.MemberID() || ev.Floor.Holder == alice.MemberID() {
					aliceGrants++
				}
				if ev.Floor.Member == bob.MemberID() {
					bobGrants++
				}
			}
		}
	}()

	for _, c := range []*client.Client{watcher, alice, bob} {
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
	if err := alice.Chat(g, "logged before the failures"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-kill convergence at the watcher", func() bool {
		return watcher.Board(g).Seq() == 1 && watcher.Holder(g) == alice.MemberID()
	})
	// Let every append reach its full replica set before the kills. The
	// survivor must hold the three joins' directory entries and all
	// three logged events — the grant, bob's queueing and the chat. Replicas ack in the background, so an ack
	// alone says nothing about the replica set; with the head there, a
	// drained ack table on each node means the RF acks landed.
	waitFor(t, "replication drained at RF=3", func() bool {
		for _, n := range cl.Nodes {
			if n.ReplicationPending() != 0 {
				return false
			}
		}
		return cl.Nodes[0].ReplicaHead(g) >= 6
	})

	cl.KillNode(1)
	cl.KillNode(2)

	// Both clients' home nodes died with the group's primary: the token
	// resume must fail over to the survivor's adopted member homes.
	reconnect(t, alice)
	reconnect(t, bob)

	waitFor(t, "survivor restores holder and queue", func() bool {
		fs := cl.Nodes[0].FloorController().Snapshot(g)
		return string(fs.Holder) == alice.MemberID() &&
			len(fs.Queue) == 1 && fs.Queue[0] == group.MemberID(bob.MemberID())
	})
	waitFor(t, "clients converge on the survivor", func() bool {
		return alice.Holder(g) == alice.MemberID() && bob.Holder(g) == alice.MemberID()
	})
	// Zero logged events lost: the pre-kill chat is still the board
	// head, and the next append continues the sequence rather than
	// re-minting it.
	if seq := watcher.Board(g).Seq(); seq != 1 {
		t.Fatalf("watcher board seq = %d after the failures, want 1", seq)
	}
	if err := alice.Chat(g, "logged after the failures"); err != nil {
		t.Fatalf("chat after failover: %v", err)
	}
	waitFor(t, "post-failure append continues the board sequence", func() bool {
		return watcher.Board(g).Seq() == 2 && bob.Board(g).Seq() == 2
	})

	// The queue survived: a release promotes bob (a "released" event
	// with a new holder — any "granted" for bob would be a duplicate).
	if err := alice.ReleaseFloor(g); err != nil {
		t.Fatalf("release after failover: %v", err)
	}
	waitFor(t, "bob promoted from the restored queue", func() bool {
		return bob.Holder(g) == bob.MemberID()
	})

	time.Sleep(200 * time.Millisecond)
	watcher.Close()
	<-done
	if aliceGrants != 1 {
		t.Errorf("watcher observed %d grants for alice; the restore must never re-grant", aliceGrants)
	}
	if bobGrants != 0 {
		t.Errorf("watcher observed %d spurious grants for bob across the failover", bobGrants)
	}
}

// TestWALReplayResumesCursorsAfterFullRestart kills the WHOLE cluster
// and restarts every node on its own WAL dir: replay must resume the
// log cursors exactly where they stopped — the next append continues
// the pre-restart board sequence on every client — and restore floor
// holders and resume tokens, so pre-restart clients reconnect into
// their old sessions.
func TestWALReplayResumesCursorsAfterFullRestart(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{
		Options: core.Options{Seed: 19}, Nodes: 2, WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	alice, err := cl.NewClientOn("hostA", pickKey(t, 2, "walchair", 0), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.NewClientOn("hostB", pickKey(t, 2, "walpart", 1), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	g0 := pickKey(t, 2, "walclass", 0)
	g1 := pickKey(t, 2, "wallab", 1)
	for _, g := range []string{g0, g1} {
		if err := alice.Join(g); err != nil {
			t.Fatal(err)
		}
		if err := bob.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	if dec, err := alice.RequestFloor(g0, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("alice grant: dec=%+v err=%v", dec, err)
	}
	if dec, err := bob.RequestFloor(g1, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("bob grant: dec=%+v err=%v", dec, err)
	}
	for _, line := range []string{"first", "second"} {
		if err := alice.Chat(g0, line); err != nil {
			t.Fatal(err)
		}
	}
	if err := bob.Chat(g1, "only"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-restart convergence", func() bool {
		return bob.Board(g0).Seq() == 2 && alice.Board(g1).Seq() == 1
	})

	// Full-cluster restart: no survivor holds anything in memory — the
	// journals are the only copy of the world.
	cl.KillNode(0)
	cl.KillNode(1)
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	reinstate(t, cl)

	// The resume tokens were journalled: the old sessions come back.
	reconnect(t, alice)
	reconnect(t, bob)
	waitFor(t, "replayed floor state reaches the clients", func() bool {
		return alice.Holder(g0) == alice.MemberID() && bob.Holder(g1) == bob.MemberID()
	})

	// The cursor check: appends after replay continue the exact
	// pre-restart sequences. A cluster that replayed short (or re-minted
	// from 1) can never produce seq 3 here.
	if err := alice.Chat(g0, "third"); err != nil {
		t.Fatalf("chat after replay: %v", err)
	}
	if err := bob.Chat(g1, "second"); err != nil {
		t.Fatalf("chat after replay: %v", err)
	}
	waitFor(t, "post-replay appends continue the old cursors", func() bool {
		return bob.Board(g0).Seq() == 3 && alice.Board(g1).Seq() == 2
	})
}

// TestRecoveredNodeMigratesPartitionsHomeUnderNewEpoch runs the
// node-replacement cycle: kill a partition's owner, let the successor
// adopt it under load, restart the owner on its WAL dir, and drive the
// router's recovery — the partition must migrate home with holder and
// board intact, under a bumped partition-map epoch.
func TestRecoveredNodeMigratesPartitionsHomeUnderNewEpoch(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{
		Options: core.Options{Seed: 23}, Nodes: 2, WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	alice, err := cl.NewClientOn("hostA", pickKey(t, 2, "epochchair", 0), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 2, "roundtrip", 1)
	if err := alice.Join(g); err != nil {
		t.Fatal(err)
	}
	if dec, err := alice.RequestFloor(g, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("grant: dec=%+v err=%v", dec, err)
	}
	if err := alice.Chat(g, "born on the owner"); err != nil {
		t.Fatal(err)
	}
	// The join's directory entry and both logged events, the grant and
	// the chat: a chat line is acked
	// before its paced batch is appended and replication is
	// asynchronous, so the chat's ack does not put it on the successor
	// yet.
	waitFor(t, "replica at the successor", func() bool {
		return cl.Nodes[0].ReplicaHead(g) >= 3
	})
	epoch0 := cl.Router.Map().Epoch()

	cl.KillNode(1)
	waitFor(t, "successor adopts under load", func() bool {
		return string(cl.Nodes[0].FloorController().Holder(g)) == alice.MemberID()
	})
	waitFor(t, "client converges on the adopter", func() bool {
		return alice.Holder(g) == alice.MemberID()
	})
	if err := alice.Chat(g, "appended on the adopter"); err != nil {
		t.Fatalf("chat during failover: %v", err)
	}
	waitFor(t, "failover append converges", func() bool {
		return alice.Board(g).Seq() == 2
	})

	if err := cl.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	reinstate(t, cl)
	if epoch := cl.Router.Map().Epoch(); epoch <= epoch0 {
		t.Errorf("recovery left the map epoch at %d (was %d); migration must version the new assignment", epoch, epoch0)
	}
	waitFor(t, "partition served home with its state", func() bool {
		return string(cl.Nodes[1].FloorController().Holder(g)) == alice.MemberID()
	})

	// The homebound partition keeps serving: one more append continues
	// the sequence that crossed two nodes and one migration.
	if err := alice.Chat(g, "appended back home"); err != nil {
		t.Fatalf("chat after migration home: %v", err)
	}
	waitFor(t, "post-migration append converges", func() bool {
		return alice.Board(g).Seq() == 3
	})
	if err := alice.ReleaseFloor(g); err != nil {
		t.Fatalf("release after migration: %v", err)
	}
}

// TestMigrationHomeKeepsTheAdoptersChanges: the owner dies with records
// in its journal that its replica never got (the peer link was cut), so
// the adopter forks the group's log below the owner's journal head. The
// adopter takes one change, a join, which its package covers at a GSeq
// still below that head; the migration home is the newer epoch, so the
// restarted owner installs the package all the same, and the join
// survives. GSeqs of the two histories do not compare.
func TestMigrationHomeKeepsTheAdoptersChanges(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{
		Options: core.Options{Seed: 29}, Nodes: 2, WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dial := func(prefix, role string) *client.Client {
		t.Helper()
		c, err := cl.NewClientOn(prefix+"host", pickKey(t, 2, prefix, 0), role, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	alice, bob, carol := dial("forkchair", "chair"), dial("forkbob", "participant"), dial("forkcarol", "participant")
	g := pickKey(t, 2, "fork", 1)
	if err := alice.Join(g); err != nil {
		t.Fatal(err)
	}
	if dec, err := alice.RequestFloor(g, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("grant: dec=%+v err=%v", dec, err)
	}
	waitFor(t, "the join's entry and the grant at the successor", func() bool {
		return cl.Nodes[0].ReplicaHead(g) >= 2
	})

	peers := []string{netsim.Host(core.NodeAddr(0)), netsim.Host(core.NodeAddr(1))}
	cl.Net.Partition(peers[0], peers[1], true)
	if err := bob.Join(g); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chat(g, "journalled, never shipped"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the owner to journal the join and the line", func() bool {
		return cl.Nodes[1].ReplicationPending() >= 2
	})
	cl.KillNode(1)
	cl.Net.Partition(peers[0], peers[1], false)
	waitFor(t, "successor adopts", func() bool {
		return string(cl.Nodes[0].FloorController().Holder(g)) == alice.MemberID()
	})
	waitFor(t, "client converges on the adopter", func() bool {
		return alice.Holder(g) == alice.MemberID()
	})
	if err := carol.Join(g); err != nil {
		t.Fatalf("join on the adopter: %v", err)
	}

	if err := cl.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	reinstate(t, cl)
	waitFor(t, "the adopter's join home", func() bool {
		ids, _ := cl.Nodes[1].Registry().GroupMemberIDs(g)
		return slices.Contains(ids, group.MemberID(carol.MemberID()))
	})
	if err := alice.Chat(g, "back home"); err != nil {
		t.Fatalf("chat after migration home: %v", err)
	}
}

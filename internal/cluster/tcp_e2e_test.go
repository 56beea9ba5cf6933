package cluster_test

import (
	"fmt"
	"net"
	"testing"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/resource"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// freePorts reserves n distinct localhost TCP addresses. The listeners
// are closed before use — the tiny reuse race is irrelevant in CI.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
		_ = l.Close()
	}
	return addrs
}

// pickKeyFor finds a key with the given primary owner under an explicit
// address list.
func pickKeyFor(t *testing.T, addrs []string, prefix string, owner int) string {
	t.Helper()
	m := cluster.NewMap(addrs)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		if m.Primary(key) == owner {
			return key
		}
	}
	t.Fatalf("no %q key owned by node %d", prefix, owner)
	return ""
}

// TestClusterTCPE2E boots 1 router + 2 nodes on real localhost sockets
// and runs the acceptance flow across the partition boundary: join,
// floor arbitration, a cross-node invitation, and a client reconnect
// after a node handoff.
func TestClusterTCPE2E(t *testing.T) {
	addrs := freePorts(t, 3)
	nodeAddrs, routerAddr := addrs[:2], addrs[2]

	nodes := make([]*server.Server, 2)
	for i := range nodes {
		mon, err := resource.New(resource.MinBound, resource.DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Network: transport.TCP{},
			Addr:    nodeAddrs[i],
			Monitor: mon,
			Cluster: &server.ClusterConfig{Nodes: nodeAddrs, Self: i},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		nodes[i] = srv
		t.Cleanup(srv.Close)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Network: transport.TCP{}, Addr: routerAddr, Nodes: nodeAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)

	dial := func(name, role string, prio int) *client.Client {
		t.Helper()
		c, err := client.Dial(client.Config{
			Network: transport.TCP{}, Addr: routerAddr,
			Name: name, Role: role, Priority: prio,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		t.Cleanup(c.Close)
		return c
	}
	// Members homed on node 0 (so the session survives killing node 1);
	// the arbitration group owned by node 1, the breakout by node 0.
	alice := dial(pickKeyFor(t, nodeAddrs, "tcp-a", 0), "chair", 5)
	bob := dial(pickKeyFor(t, nodeAddrs, "tcp-b", 0), "participant", 3)
	g1 := pickKeyFor(t, nodeAddrs, "tcp-class", 1)
	breakout := pickKeyFor(t, nodeAddrs, "tcp-breakout", 0)

	for _, c := range []*client.Client{alice, bob} {
		if err := c.Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := alice.RequestFloor(g1, floor.EqualControl, "")
	if err != nil || !dec.Granted {
		t.Fatalf("grant over TCP: dec=%+v err=%v", dec, err)
	}
	waitFor(t, "floor event over TCP", func() bool { return bob.Holder(g1) == alice.MemberID() })
	if err := alice.Chat(g1, "over real sockets"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "board over TCP", func() bool { return bob.Board(g1).Seq() == 1 })

	// Invitation across the partition boundary.
	if err := alice.Join(breakout); err != nil {
		t.Fatal(err)
	}
	inviteID, err := alice.Invite(breakout, bob.MemberID())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cross-node invite over TCP", func() bool { return len(bob.PendingInvites()) == 1 })
	if err := bob.ReplyInvite(inviteID, true); err != nil {
		t.Fatal(err)
	}

	// Handoff: let the replica land, kill the owner, and reconnect a
	// dropped client across the handoff — the PR 3 resume path must
	// converge it on the adopted partition.
	waitFor(t, "replication before kill", func() bool { return nodes[0].ReplicaHead(g1) >= 3 })
	bob.Drop()
	nodes[1].Close()
	waitFor(t, "successor restores the held floor", func() bool {
		return string(nodes[0].FloorController().Holder(g1)) == alice.MemberID()
	})
	if err := bob.Reconnect(); err != nil {
		t.Fatalf("reconnect after handoff: %v", err)
	}
	if err := alice.Chat(g1, "after the handoff"); err != nil {
		t.Fatalf("chat after handoff: %v", err)
	}
	waitFor(t, "reconnected client converges on the new owner", func() bool {
		return bob.Holder(g1) == alice.MemberID() && bob.Board(g1).Seq() == 2
	})
}

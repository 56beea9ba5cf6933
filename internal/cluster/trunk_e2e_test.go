package cluster_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// countingNet counts, per address, the connections dialed to it and the
// connections its listener accepted.
type countingNet struct {
	transport.Network
	mu      sync.Mutex
	dials   map[string]int
	accepts map[string]int
}

func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	n.dials[addr]++
	n.mu.Unlock()
	return n.Network.Dial(addr)
}

func (n *countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, n: n}, nil
}

type countingListener struct {
	transport.Listener
	n *countingNet
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.mu.Lock()
		l.n.accepts[l.Addr()]++
		l.n.mu.Unlock()
	}
	return c, err
}

func (n *countingNet) count(m map[string]int, addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return m[addr]
}

// series reads one unlabelled or labelled sample off a registry's
// exposition page (the whole left-hand side is the key).
func series(t *testing.T, reg *metrics.Registry, key string) string {
	t.Helper()
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key+" "); ok {
			return v
		}
	}
	t.Fatalf("no series %s on the page:\n%s", key, page.String())
	return ""
}

// TestRouterTrunkSharesOneConnectionPerNode drives sixteen sessions
// through one router, all homed on node 0 and all in a group node 1
// owns, so every session has an upstream to both nodes. They must share
// exactly one connection per node. A session displaced at its home node
// loses only its own streams. Killing node 1 costs the router one probe
// dial and one down mark, and every session exactly one node_moved.
func TestRouterTrunkSharesOneConnectionPerNode(t *testing.T) {
	const members = 16
	sim := netsim.New(47)
	nodeNet := &countingNet{Network: sim, dials: map[string]int{}, accepts: map[string]int{}}
	routerNet := &countingNet{Network: sim, dials: map[string]int{}, accepts: map[string]int{}}
	addrs := []string{"trunk-n0:1", "trunk-n1:1"}
	nodes := make([]*server.Server, len(addrs))
	for i := range nodes {
		// ReplicationFactor 1: no peer links, so everything a node
		// accepts comes from the router.
		srv, err := server.New(server.Config{
			Network: nodeNet, Addr: addrs[i],
			Cluster: &server.ClusterConfig{Nodes: addrs, Self: i, ReplicationFactor: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		nodes[i] = srv
		t.Cleanup(srv.Close)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Network: routerNet, Addr: "trunk-router:1", Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)
	routerReg, nodeReg := metrics.NewRegistry(), metrics.NewRegistry()
	router.RegisterMetrics(routerReg)
	nodes[1].RegisterMetrics(nodeReg)

	g := pickKeyFor(t, addrs, "trunk-class", 1)
	clients := make([]*client.Client, members)
	moved := make([]atomic.Int32, members)
	for i := range clients {
		c, err := client.Dial(client.Config{
			Network: sim, Addr: router.Addr(),
			Name: pickKeyFor(t, addrs, fmt.Sprintf("trunk-m%d-", i), 0), Role: "participant", Priority: 3,
			OnEvent: func(msg protocol.Message) {
				if msg.Type == protocol.TNodeMoved {
					moved[i].Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}

	oneEach := func(when string) {
		t.Helper()
		for i, addr := range addrs {
			if got := nodeNet.count(nodeNet.accepts, addr); got != 1 {
				t.Fatalf("%s: node %d accepted %d connections, want the one trunk", when, i, got)
			}
			if got := routerNet.count(routerNet.dials, addr); got != 1 {
				t.Fatalf("%s: the router dialed node %d %d times, want once", when, i, got)
			}
		}
	}
	oneEach("16 sessions joined")
	if got := series(t, routerReg, "dmps_trunk_streams"); got != "32" {
		t.Errorf("router dmps_trunk_streams = %s, want 32 (16 sessions x 2 nodes)", got)
	}
	if got := series(t, nodeReg, "dmps_trunk_streams"); got != "16" {
		t.Errorf("node 1 dmps_trunk_streams = %s, want 16", got)
	}

	// Displace one session at its home node: the resume's new session
	// pushes the old one out, and the node closes that one stream. The
	// router tears the old session down (its home upstream ended), which
	// closes its node-1 stream too; nobody else notices.
	clients[0].Drop()
	if err := clients[0].Reconnect(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the displaced session's streams close, and only those", func() bool {
		return router.Sessions() == members && series(t, routerReg, "dmps_trunk_streams") == "32"
	})
	if err := clients[0].Chat(g, "still here"); err != nil {
		t.Fatalf("chat after displacement: %v", err)
	}
	waitFor(t, "everyone sees the resumed member's line", func() bool {
		for _, c := range clients {
			if c.Board(g).Seq() != 1 {
				return false
			}
		}
		return true
	})
	oneEach("after a displaced session")
	if got := series(t, routerReg, "dmps_trunk_down_total"); got != "0" {
		t.Errorf("a closed stream took a trunk down: dmps_trunk_down_total = %s", got)
	}
	for i := range moved {
		if got := moved[i].Load(); got != 0 {
			t.Errorf("session %d was told node_moved %d times with every node up", i, got)
		}
	}

	nodes[1].Close()
	waitFor(t, "every session hears node_moved", func() bool {
		for i := range moved {
			if moved[i].Load() == 0 {
				return false
			}
		}
		return true
	})
	// A round trip to the home node after the push: anything the router
	// was still going to send this session has arrived by the reply.
	for i, c := range clients {
		if _, err := c.SyncClock(); err != nil {
			t.Fatalf("session %d lost its home upstream with node 1: %v", i, err)
		}
		if got := moved[i].Load(); got != 1 {
			t.Errorf("session %d was told node_moved %d times for one dead node, want 1", i, got)
		}
	}
	if !router.Map().Down(1) || router.Map().Down(0) {
		t.Errorf("down set after killing node 1: node0=%v node1=%v", router.Map().Down(0), router.Map().Down(1))
	}
	if got := router.Map().Version(); got != 1 {
		t.Errorf("partition map version %d after one node death, want 1 (one down mark)", got)
	}
	if got := series(t, routerReg, "dmps_trunk_down_total"); got != "1" {
		t.Errorf("dmps_trunk_down_total = %s, want 1", got)
	}
	// One trunk, one probe — not one probe per session.
	if got := routerNet.count(routerNet.dials, addrs[1]); got != 2 {
		t.Errorf("the router dialed the dead node %d times in all, want 2 (its trunk, then one probe)", got)
	}
	if got := routerNet.count(routerNet.dials, addrs[0]); got != 1 {
		t.Errorf("the router dialed node 0 %d times, want once", got)
	}
}

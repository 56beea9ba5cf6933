package cluster_test

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/transport"
)

// listenerNet keeps the listener it hands out, so a test can kill it
// under its owner.
type listenerNet struct {
	transport.Network
	mu sync.Mutex
	l  transport.Listener
}

func (n *listenerNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	n.mu.Lock()
	n.l = l
	n.mu.Unlock()
	return l, err
}

// TestRouterErrorsCounted: the router counts what it used to drop. A
// recovery prober pass over a node that does not answer is a "recover"
// error, one per pass, and an accept loop that dies other than by Close
// is a "serve" error.
func TestRouterErrorsCounted(t *testing.T) {
	net := &listenerNet{Network: netsim.New(61)}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Network: net, Addr: "router:1", Nodes: []string{"gone:1"}, RecoverInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	reg := metrics.NewRegistry()
	router.RegisterMetrics(reg)
	count := func(site string) float64 {
		v, err := strconv.ParseFloat(series(t, reg, `dmps_router_errors_total{site="`+site+`"}`), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if count("recover") != 0 || count("serve") != 0 || count("upstream_send") != 0 {
		t.Fatal("a fresh router counts errors")
	}
	router.Map().MarkDown(0)
	deadline := time.Now().Add(3 * time.Second)
	for count("recover") < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if count("recover") < 2 {
		t.Fatalf("recover passes over a dead node counted %v, want one per pass", count("recover"))
	}

	router.Start()
	net.mu.Lock()
	err = net.l.Close()
	net.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for count("serve") != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := count("serve"); got != 1 {
		t.Fatalf("an accept loop killed under the router counted %v serve errors, want 1", got)
	}
}

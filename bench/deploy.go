package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// waitLimit bounds every wait the benchmark makes on the system under
// test: a hang becomes a counted failure, never a stuck run.
const waitLimit = 2 * time.Second

// Deployment kinds.
const (
	kindCluster = "cluster" // 1 router + 3 nodes, replication factor 2, a WAL per node
	kindSolo    = "solo"    // one standalone server: no router, no replication, no WAL
)

// clusterNodes is the node count of the cluster deployment.
const clusterNodes = 3

// deployment is one system under test, booted in-process on loopback
// TCP with every server.Config field the kind does not name left at its
// default — the configuration users get.
type deployment struct {
	nodes   []*server.Server
	router  *cluster.Router
	addr    string // what clients dial: the router, or the solo server
	pmap    *cluster.Map
	walRoot string
	// regs holds one private registry per process-equivalent (each node,
	// then the router): their series names collide, and the benchmark
	// sums them itself.
	regs    []*metrics.Registry
	clients []*client.Client
	// dialJoin is the time set-up spent inside client.Dial and
	// Client.Join, summed over the clients.
	dialJoin time.Duration
}

// freePorts reserves n distinct loopback addresses by listening on
// port 0 and closing again; cluster nodes must know each other's
// addresses before any of them listens.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, l.Addr().String())
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// boot starts a deployment of the given kind. tmpRoot is where the
// cluster's WAL directories go; it must lie inside the checkout. A
// reserved port can be taken by an outbound connection before its node
// listens on it, so a failed boot is tried again on fresh ports.
func boot(kind, tmpRoot string) (d *deployment, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if d, err = bootOnce(kind, tmpRoot); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func bootOnce(kind, tmpRoot string) (*deployment, error) {
	d := &deployment{}
	if kind == kindSolo {
		srv, err := server.New(server.Config{Network: transport.TCP{}, Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		srv.Start()
		d.nodes = []*server.Server{srv}
		d.addr = srv.Addr()
		d.register()
		return d, nil
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	walRoot, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	d.walRoot = walRoot
	addrs, err := freePorts(clusterNodes + 1)
	if err != nil {
		d.close()
		return nil, err
	}
	nodeAddrs := addrs[:clusterNodes]
	d.pmap = cluster.NewMap(nodeAddrs)
	for i := range nodeAddrs {
		srv, err := server.New(server.Config{
			Network: transport.TCP{},
			Addr:    nodeAddrs[i],
			WALDir:  filepath.Join(walRoot, fmt.Sprintf("node%d", i)),
			Cluster: &server.ClusterConfig{Nodes: nodeAddrs, Self: i, ReplicationFactor: 2},
		})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		srv.Start()
		d.nodes = append(d.nodes, srv)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Network: transport.TCP{}, Addr: addrs[clusterNodes], Nodes: nodeAddrs,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	router.Start()
	d.router = router
	d.addr = router.Addr()
	d.register()
	return d, nil
}

func (d *deployment) register() {
	for _, n := range d.nodes {
		reg := metrics.NewRegistry()
		n.RegisterMetrics(reg)
		d.regs = append(d.regs, reg)
	}
	if d.router != nil {
		reg := metrics.NewRegistry()
		d.router.RegisterMetrics(reg)
		d.regs = append(d.regs, reg)
	}
}

// dial connects one member through the deployment's front door.
func (d *deployment) dial(name, role string, traced bool, tap func(protocol.Message)) (*client.Client, error) {
	t0 := time.Now()
	c, err := client.Dial(client.Config{
		Network: transport.TCP{}, Addr: d.addr,
		Name: name, Role: role, Priority: 2,
		Timeout: waitLimit, OnEvent: tap, Trace: traced,
	})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	d.dialJoin += time.Since(t0)
	d.clients = append(d.clients, c)
	return c, nil
}

// join joins a dialed member to a group.
func (d *deployment) join(c *client.Client, group string) error {
	t0 := time.Now()
	err := c.Join(group)
	d.dialJoin += time.Since(t0)
	return err
}

// groupOwnedBy returns a group ID whose primary owner is the given node
// (any ID on the solo deployment).
func (d *deployment) groupOwnedBy(prefix string, node int) string {
	if d.pmap == nil {
		return prefix
	}
	for i := 0; ; i++ {
		if key := fmt.Sprintf("%s%d", prefix, i); d.pmap.Primary(key) == node {
			return key
		}
	}
}

// close tears the deployment down: clients first, then the router, then
// the nodes, then the WAL directories.
func (d *deployment) close() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.router != nil {
		d.router.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
	if d.walRoot != "" {
		_ = os.RemoveAll(d.walRoot) // a leftover directory is reported by the hygiene test, not fatal here
	}
}

// counters is one reading of everything the layers count about
// themselves, taken through public accessors only. Two readings bracket
// a measured window; their difference is the window's work.
type counters struct {
	encodes                 int64
	walBytes                int64
	boardOps, boardEvents   int64
	restateMarked, restated int64
	drops                   int64
	routedUp, relayedDown   int64
	// series sums each Prometheus series over the registries; wireMsgs
	// is the messages the session writers flushed, recovered per node
	// from its mean-per-flush gauge before summing.
	series   map[string]float64
	wireMsgs float64
}

func (d *deployment) read() counters {
	c := counters{encodes: protocol.EncodeCount(), series: make(map[string]float64)}
	for _, n := range d.nodes {
		c.walBytes += n.WALStats().Bytes
		ops, logged := n.BoardStormStats()
		c.boardOps += ops
		c.boardEvents += logged
		marked, restated := n.CoalesceStats()
		c.restateMarked += marked
		c.restated += restated
		for _, st := range n.SessionStats() {
			c.drops += st.Drops
		}
	}
	if d.router != nil {
		c.routedUp, c.relayedDown = d.router.Routed()
	}
	for _, reg := range d.regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			continue // a bytes.Buffer cannot fail; the registry's own errors leave the series at 0
		}
		node := parseSeries(buf.String())
		for name, v := range node {
			c.series[name] += v
		}
		c.wireMsgs += node["dmps_wire_msgs_per_flush"] * node["dmps_wire_flushes_total"]
	}
	return c
}

// parseSeries reads Prometheus text exposition into name → value,
// summing label sets of one name. The one label the benchmark needs
// apart is the wire direction, kept as name:in / name:out.
func parseSeries(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			labels := name[br:]
			name = name[:br]
			switch {
			case strings.Contains(labels, `dir="in"`):
				name += ":in"
			case strings.Contains(labels, `dir="out"`):
				name += ":out"
			}
		}
		out[name] += v
	}
	return out
}

// watchPending samples the nodes' in-flight replication forwards every
// 20 ms until stop closes, then delivers the largest total seen.
func (d *deployment) watchPending(stop <-chan struct{}) <-chan int {
	result := make(chan int, 1)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		most := 0
		for {
			select {
			case <-stop:
				result <- most
				return
			case <-tick.C:
				sum := 0
				for _, n := range d.nodes {
					sum += n.ReplicationPending()
				}
				if sum > most {
					most = sum
				}
			}
		}
	}()
	return result
}

// leakedGoroutines reports how many goroutines outlive a teardown,
// against the count taken before the deployment booted. Connection
// handlers need a moment to notice their sockets closing, so the check
// polls briefly before it believes a surplus.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(waitLimit)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

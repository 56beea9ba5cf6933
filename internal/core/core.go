// Package core assembles the full DMPS system — simulated network, DMPS
// server with its group administration, floor control, global clock, and
// any number of clients — into a single Lab object. The examples, the
// command-line tools and the experiment harness all build on it; it is
// the paper's "distributed multimedia presentation system" in one value.
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/resource"
	"dmps/internal/server"
)

// ServerAddr is the well-known simulated address of the lab server.
const ServerAddr = "dmps-server:4321"

// Options configure a Lab.
type Options struct {
	// Seed feeds the simulated network's jitter/loss RNG.
	Seed int64
	// Link is the default link config between every client and the
	// server (zero means instant delivery).
	Link netsim.LinkConfig
	// Thresholds are the α/β floor-control thresholds (defaults apply
	// when zero).
	Thresholds resource.Thresholds
	// ProbeInterval / ProbeTimeout tune the status lights (defaults:
	// 50ms / 150ms — fast enough for tests and examples).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// ClientTimeout bounds request/response exchanges (default 5s).
	ClientTimeout time.Duration
	// SendQueueCap bounds each session's outbound queue at the server
	// (default: the server's own default).
	SendQueueCap int
	// SlowPolicy is the server's slow-consumer policy.
	SlowPolicy server.SlowConsumerPolicy
	// LogCap bounds each group's retained event log at the server
	// (default: the server's own default); under pressure the log
	// compacts class-wise, and clients the retained suffix cannot
	// connect converge through a snapshot instead of a replay.
	LogCap int
	// SessionTTL bounds how long a disconnected member's session token
	// and directory entry outlive their last connection before the
	// server reaps them (default: the server's own default, one hour).
	SessionTTL time.Duration
}

// Lab is a fully assembled in-memory DMPS deployment.
type Lab struct {
	// Net is the simulated network (links, partitions, crashes).
	Net *netsim.Net
	// Server is the DMPS server.
	Server *server.Server
	// Monitor drives resource-based arbitration; set its vector to move
	// between the Normal/Degraded/Critical regimes.
	Monitor *resource.Monitor

	opts    Options
	clients []*client.Client
}

// NewLab builds and starts a DMPS deployment.
func NewLab(opts Options) (*Lab, error) {
	if opts.Thresholds == (resource.Thresholds{}) {
		opts.Thresholds = resource.DefaultThresholds()
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 50 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 3 * opts.ProbeInterval
	}
	if opts.ClientTimeout <= 0 {
		opts.ClientTimeout = 5 * time.Second
	}
	net := netsim.New(opts.Seed)
	net.SetDefaultLink(opts.Link)
	mon, err := resource.New(resource.MinBound, opts.Thresholds)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	srv, err := server.New(server.Config{
		Network:       net,
		Addr:          ServerAddr,
		Monitor:       mon,
		ProbeInterval: opts.ProbeInterval,
		ProbeTimeout:  opts.ProbeTimeout,
		SendQueueCap:  opts.SendQueueCap,
		SlowPolicy:    opts.SlowPolicy,
		LogCap:        opts.LogCap,
		SessionTTL:    opts.SessionTTL,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	srv.Start()
	return &Lab{Net: net, Server: srv, Monitor: mon, opts: opts}, nil
}

// NewClient connects a client with the given identity. Role is "chair"
// or "participant".
func (l *Lab) NewClient(name, role string, priority int) (*client.Client, error) {
	c, err := client.Dial(client.Config{
		Network:  l.Net,
		Addr:     ServerAddr,
		Name:     name,
		Role:     role,
		Priority: priority,
		Timeout:  l.opts.ClientTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	l.clients = append(l.clients, c)
	return c, nil
}

// NewClientOn connects a client whose traffic traverses a named simulated
// host, so per-host link configs (delay, jitter, loss) apply.
func (l *Lab) NewClientOn(host, name, role string, priority int) (*client.Client, error) {
	c, err := client.Dial(client.Config{
		Network:  l.Net.From(host),
		Addr:     ServerAddr,
		Name:     name,
		Role:     role,
		Priority: priority,
		Timeout:  l.opts.ClientTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	l.clients = append(l.clients, c)
	return c, nil
}

// Close disconnects every client and stops the server.
func (l *Lab) Close() {
	for _, c := range l.clients {
		c.Close()
	}
	l.Server.Close()
}

// WirePresentation is a convenience re-export so facade users need not
// import protocol directly.
type WirePresentation = protocol.PresentBody

// RouterAddr is the well-known simulated address of the lab cluster's
// routing tier; NodeAddr derives each node's.
const RouterAddr = "dmps-router:4321"

// NodeAddr returns the simulated address of lab cluster node i.
func NodeAddr(i int) string { return fmt.Sprintf("dmps-node%d:4321", i) }

// ClusterOptions configure a StartCluster lab deployment: the base lab
// options apply to every node, and Nodes picks the node count.
type ClusterOptions struct {
	// Options configure each node (probe cadence, queue caps, log caps,
	// TTLs) and the simulated network, exactly as for NewLab.
	Options
	// Nodes is the number of group-partition node processes (default 2).
	Nodes int
	// ReplicationFactor is how many nodes hold each logged append
	// (default: the cluster plane's own default, 2 — primary plus one
	// ring successor).
	ReplicationFactor int
	// WALDir, when set, gives each node a write-ahead log under
	// WALDir/node<i>, so KillNode+RestartNode drills replay durable
	// state instead of starting empty.
	WALDir string
}

// Cluster is a fully assembled in-memory multi-process DMPS deployment:
// N group-partition nodes behind one router, all on the simulated
// network. It is the lab helper behind cluster experiments and tests;
// production deployments run the same pieces as real processes
// (cmd/dmps-server -cluster, cmd/dmps-router).
type Cluster struct {
	// Net is the simulated network shared by router, nodes and clients.
	Net *netsim.Net
	// Router is the routing tier clients dial.
	Router *cluster.Router
	// Nodes are the group-partition node servers, in ring order.
	Nodes []*server.Server
	// Monitors drive each node's resource-based arbitration, index-
	// aligned with Nodes.
	Monitors []*resource.Monitor

	addrs   []string
	opts    ClusterOptions
	clients []*client.Client
}

// StartCluster builds and starts an in-memory cluster: Nodes partition
// nodes (hash-assigned groups and member homes, successor replication,
// typed forwards) behind one router on the simulated network.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	if opts.Thresholds == (resource.Thresholds{}) {
		opts.Thresholds = resource.DefaultThresholds()
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 50 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 3 * opts.ProbeInterval
	}
	if opts.ClientTimeout <= 0 {
		opts.ClientTimeout = 5 * time.Second
	}
	net := netsim.New(opts.Seed)
	net.SetDefaultLink(opts.Link)
	addrs := make([]string, opts.Nodes)
	for i := range addrs {
		addrs[i] = NodeAddr(i)
	}
	c := &Cluster{Net: net, addrs: addrs, opts: opts}
	for i := range addrs {
		srv, mon, err := c.startNode(i)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, srv)
		c.Monitors = append(c.Monitors, mon)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Network: net.From(netsim.Host(RouterAddr)),
		Addr:    RouterAddr,
		Nodes:   addrs,
	})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("core: %w", err)
	}
	router.Start()
	c.Router = router
	return c, nil
}

// startNode builds and starts cluster node i from the lab options. The
// WAL dir (when configured) is per-node and stable across restarts, so
// a restarted node replays the state its predecessor journalled.
func (c *Cluster) startNode(i int) (*server.Server, *resource.Monitor, error) {
	mon, err := resource.New(resource.MinBound, c.opts.Thresholds)
	if err != nil {
		return nil, nil, err
	}
	var walDir string
	if c.opts.WALDir != "" {
		walDir = filepath.Join(c.opts.WALDir, fmt.Sprintf("node%d", i))
	}
	srv, err := server.New(server.Config{
		Network:       c.Net,
		Addr:          c.addrs[i],
		Monitor:       mon,
		ProbeInterval: c.opts.ProbeInterval,
		ProbeTimeout:  c.opts.ProbeTimeout,
		SendQueueCap:  c.opts.SendQueueCap,
		SlowPolicy:    c.opts.SlowPolicy,
		LogCap:        c.opts.LogCap,
		SessionTTL:    c.opts.SessionTTL,
		WALDir:        walDir,
		Cluster: &server.ClusterConfig{
			Nodes:             c.addrs,
			Self:              i,
			ReplicationFactor: c.opts.ReplicationFactor,
			// Inter-node traffic originates at the node's own host so
			// per-host link configs apply.
			Network: c.Net.From(netsim.Host(c.addrs[i])),
		},
	})
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	return srv, mon, nil
}

// RestartNode brings a killed node i back at its original address with
// its original WAL dir — the node-replacement drill. The restarted
// process replays its write-ahead log (if ClusterOptions.WALDir is
// set), resumes at the journalled GSeq/CSeq cursors, and is ready for
// Router.Recover to migrate its partitions home.
func (c *Cluster) RestartNode(i int) error {
	if i < 0 || i >= len(c.Nodes) {
		return fmt.Errorf("core: no node %d", i)
	}
	if c.Nodes[i] != nil {
		c.Nodes[i].Close()
	}
	srv, mon, err := c.startNode(i)
	if err != nil {
		return fmt.Errorf("core: restart node %d: %w", i, err)
	}
	c.Nodes[i] = srv
	c.Monitors[i] = mon
	return nil
}

// NewClient connects a client through the router.
func (c *Cluster) NewClient(name, role string, priority int) (*client.Client, error) {
	return c.NewClientOn("client", name, role, priority)
}

// NewClientOn connects a client through the router from a named
// simulated host, so per-host link configs apply.
func (c *Cluster) NewClientOn(host, name, role string, priority int) (*client.Client, error) {
	cl, err := client.Dial(client.Config{
		Network:  c.Net.From(host),
		Addr:     RouterAddr,
		Name:     name,
		Role:     role,
		Priority: priority,
		Timeout:  c.opts.ClientTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c.clients = append(c.clients, cl)
	return cl, nil
}

// KillNode abruptly stops node i — the partition-handoff drill: its
// partitions fail over to the ring successor, which restores them from
// the replicated state, and clients converge through the router's
// node_moved push.
func (c *Cluster) KillNode(i int) {
	if i >= 0 && i < len(c.Nodes) && c.Nodes[i] != nil {
		c.Nodes[i].Close()
	}
}

// Close disconnects every client and stops the router and all nodes.
func (c *Cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.Router != nil {
		c.Router.Close()
	}
	for _, n := range c.Nodes {
		if n != nil {
			n.Close()
		}
	}
}

// Command dmps-server runs a DMPS server on real TCP sockets.
//
// Usage:
//
//	dmps-server [-addr :4321] [-probe 500ms] [-alpha 0.5] [-beta 0.15]
//	            [-session-ttl 1h] [-cluster host1:4321,host2:4321 -node 0]
//	            [-rf 2] [-wal /var/lib/dmps/node0] [-metrics :9321]
//
// With -metrics the server serves its observability plane — session,
// coalesce, grouplog and (in cluster mode) forward-pool and
// partition-map series — as Prometheus text at http://ADDR/metrics.
// See docs/OPERATIONS.md for the series and their meanings.
//
// Clients (cmd/dmps-client) connect, join groups, request the floor and
// chat; the server centralizes group administration, floor arbitration,
// the global clock and the connection lights.
//
// With -cluster the server runs as one group-partition node of a
// multi-process cluster: -cluster lists every node address in ring
// order (identical on all nodes and on cmd/dmps-router) and -node is
// this process's index in that list. The node serves only its hash
// partitions, homes only its members, and replicates every logged
// append to -rf minus one ring successors (acked, with resend) so any
// rf-1 simultaneous node losses keep every logged event.
//
// With -wal the server journals logged state to a write-ahead segment
// store in the given directory and replays it on start, resuming at
// the same event-log cursors — the full-restart durability leg. Give
// every node its own directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"dmps/internal/metrics"
	"dmps/internal/resource"
	"dmps/internal/server"
	"dmps/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":4321", "listen address")
	probe := flag.Duration("probe", 500*time.Millisecond, "status probe interval")
	alpha := flag.Float64("alpha", 0.5, "α threshold: basic resource availability")
	beta := flag.Float64("beta", 0.15, "β threshold: minimal resource availability")
	sessionTTL := flag.Duration("session-ttl", time.Hour, "reap members whose sessions stay silent this long")
	clusterNodes := flag.String("cluster", "", "comma-separated node addresses in ring order; enables cluster mode")
	nodeIdx := flag.Int("node", 0, "this node's index in -cluster")
	rf := flag.Int("rf", 0, "replication factor: nodes holding each logged append (default 2 in cluster mode)")
	walDir := flag.String("wal", "", "write-ahead log directory; journals and replays logged state (off when empty)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics at http://ADDR/metrics (off when empty)")
	flag.Parse()

	mon, err := resource.New(resource.MinBound, resource.Thresholds{Alpha: *alpha, Beta: *beta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmps-server:", err)
		return 1
	}
	cfg := server.Config{
		Network:       transport.TCP{},
		Addr:          *addr,
		Monitor:       mon,
		ProbeInterval: *probe,
		SessionTTL:    *sessionTTL,
	}
	if *clusterNodes != "" {
		nodes := strings.Split(*clusterNodes, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		cfg.Cluster = &server.ClusterConfig{Nodes: nodes, Self: *nodeIdx, ReplicationFactor: *rf}
	}
	cfg.WALDir = *walDir
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmps-server:", err)
		return 1
	}
	if cfg.Cluster != nil {
		fmt.Printf("dmps-server node %d/%d listening on %s (α=%.2f β=%.2f probe=%v)\n",
			*nodeIdx, len(cfg.Cluster.Nodes), srv.Addr(), *alpha, *beta, *probe)
	} else {
		fmt.Printf("dmps-server listening on %s (α=%.2f β=%.2f probe=%v)\n", srv.Addr(), *alpha, *beta, *probe)
	}
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		srv.RegisterMetrics(reg)
		ln, err := reg.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmps-server: metrics:", err)
			srv.Close()
			return 1
		}
		defer ln.Close()
		fmt.Printf("dmps-server metrics on http://%s/metrics\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case <-sig:
		fmt.Println("\ndmps-server: shutting down")
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmps-server:", err)
			srv.Close()
			return 1
		}
	}
	srv.Close()
	return 0
}

// Command dmps-router runs the DMPS cluster routing tier on real TCP
// sockets: the one address clients dial in front of N group-partition
// nodes (cmd/dmps-server -cluster). It admits each session at the
// member's home node, proxies group traffic to each group's owner per
// the shared hash partition map, and fails partitions over to ring
// successors when a node dies.
//
// Usage:
//
//	dmps-router -addr :4320 -nodes host1:4321,host2:4321 \
//	    [-recover 2s] [-metrics :9320]
//
// The -nodes list must be identical (same order) to the one every node
// runs with: the ring order is the cluster's identity.
//
// With -recover the router self-heals: it re-dials down nodes on that
// cadence and returns any that answer to service through the
// epoch-versioned live migration (the state their partitions
// accumulated elsewhere is shipped back before traffic moves). Zero
// disables the prober.
//
// With -metrics the router serves its observability plane — proxied
// session count, routed/relayed throughput, and the partition map's
// version and down-set — as Prometheus text at http://ADDR/metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":4320", "listen address clients dial")
	nodes := flag.String("nodes", "", "comma-separated node addresses, in ring order")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics at http://ADDR/metrics (off when empty)")
	recoverEvery := flag.Duration("recover", 2*time.Second, "re-probe down nodes and migrate their partitions home on this cadence (0 disables)")
	flag.Parse()

	nodeList := strings.Split(*nodes, ",")
	for i := range nodeList {
		nodeList[i] = strings.TrimSpace(nodeList[i])
	}
	if *nodes == "" || len(nodeList) == 0 {
		fmt.Fprintln(os.Stderr, "dmps-router: -nodes is required")
		return 1
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Network:         transport.TCP{},
		Addr:            *addr,
		Nodes:           nodeList,
		RecoverInterval: *recoverEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmps-router:", err)
		return 1
	}
	fmt.Printf("dmps-router listening on %s, %d nodes: %s\n", router.Addr(), len(nodeList), strings.Join(nodeList, ", "))
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		router.RegisterMetrics(reg)
		ln, err := reg.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmps-router: metrics:", err)
			router.Close()
			return 1
		}
		defer ln.Close()
		fmt.Printf("dmps-router metrics on http://%s/metrics\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- router.Serve() }()
	select {
	case <-sig:
		fmt.Println("\ndmps-router: shutting down")
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmps-router:", err)
			router.Close()
			return 1
		}
	}
	router.Close()
	return 0
}

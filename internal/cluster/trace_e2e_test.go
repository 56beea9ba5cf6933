package cluster_test

import (
	"testing"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/resource"
	"dmps/internal/server"
	"dmps/internal/trace"
	"dmps/internal/transport"
)

// stagesByTrace folds one plane's flight recorder (completed rings plus
// still-pending assemblies) into trace ID → set of recorded stage
// names.
func stagesByTrace(p *trace.Plane) map[uint64]map[string]bool {
	page := p.Snapshot(0)
	out := map[uint64]map[string]bool{}
	pool := func(ops []*trace.OpTrace) {
		for _, op := range ops {
			for _, s := range op.Spans {
				m := out[op.Trace]
				if m == nil {
					m = map[string]bool{}
					out[op.Trace] = m
				}
				m[s.Stage] = true
			}
		}
	}
	pool(page.Recent)
	pool(page.Slow)
	pool(page.Pending)
	return out
}

// TestTraceCrossesThreeProcessesTCPE2E drives traced floor grants over
// a real TCP deployment — 1 router + 2 cluster nodes — from two clients
// homed on different nodes in the SAME group, and requires that each
// client's grant yields an assembled trace whose spans cross all three
// processes: the router's relay span, the owner node's dispatch
// pipeline, and the replica node's replication ack — with at least 5
// distinct named stages in the union. One wire-propagated trace ID
// stitches the whole request path together: the client's frame carries
// it to the owner, the logged event's frame keeps it, and the replica
// forward's frame takes it from the event it carries.
func TestTraceCrossesThreeProcessesTCPE2E(t *testing.T) {
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

	dial := func(name string) *client.Client {
		t.Helper()
		c, err := client.Dial(client.Config{
			Network: transport.TCP{}, Addr: routerAddr,
			Name: name, Role: "participant", Priority: 5,
			Trace: true,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		t.Cleanup(c.Close)
		return c
	}

	// The group is owned by node 1, so node 0 is its replica — every
	// logged event's trace must cross to it through the forward path.
	remote := dial(pickKeyFor(t, nodeAddrs, "trace-remote", 0))
	local := dial(pickKeyFor(t, nodeAddrs, "trace-local", 1))
	group := pickKeyFor(t, nodeAddrs, "trace-class", 1)
	for _, c := range []*client.Client{remote, local} {
		if err := c.Join(group); err != nil {
			t.Fatal(err)
		}
	}

	// qualifying lists the trace IDs whose spans landed on ALL three
	// processes with ≥ 5 distinct stage names in the union.
	qualifying := func() map[uint64]bool {
		viaRouter := stagesByTrace(router.TracePlane())
		viaOwner := stagesByTrace(nodes[1].TracePlane())
		viaReplica := stagesByTrace(nodes[0].TracePlane())
		ok := map[uint64]bool{}
		for id, ownerStages := range viaOwner {
			routerStages, onRouter := viaRouter[id]
			replicaStages, onReplica := viaReplica[id]
			if !onRouter || !onReplica {
				continue
			}
			union := map[string]bool{}
			for _, stages := range []map[string]bool{ownerStages, routerStages, replicaStages} {
				for s := range stages {
					union[s] = true
				}
			}
			if len(union) >= 5 {
				ok[id] = true
			}
		}
		return ok
	}

	// Grant to the member homed on the group's owner first.
	if dec, err := local.RequestFloor(group, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("owner-homed grant: dec=%+v err=%v", dec, err)
	}
	waitFor(t, "a trace crosses router, owner and replica", func() bool {
		return len(qualifying()) >= 1
	})
	first := qualifying()

	// Hand the floor across and grant to the member homed on the replica:
	// its trace must qualify too, as a NEW trace ID.
	if err := local.ReleaseFloor(group); err != nil {
		t.Fatal(err)
	}
	if dec, err := remote.RequestFloor(group, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("replica-homed grant: dec=%+v err=%v", dec, err)
	}
	waitFor(t, "a second trace crosses router, owner and replica", func() bool {
		for id := range qualifying() {
			if !first[id] {
				return true
			}
		}
		return false
	})

	// The qualifying traces really assembled ≥ 5 named spans: re-check
	// one explicitly and require the relay and repl_ack endpoints of the
	// path by name, so the qualification can't be satisfied by a lopsided
	// trace that never left one process.
	viaRouter := stagesByTrace(router.TracePlane())
	viaReplica := stagesByTrace(nodes[0].TracePlane())
	for id := range qualifying() {
		if !viaRouter[id][trace.StageRelay] {
			t.Fatalf("trace %x crossed the router without a relay span", id)
		}
		if !viaReplica[id][trace.StageReplAck] {
			t.Fatalf("trace %x reached the replica without a repl_ack span", id)
		}
	}
}

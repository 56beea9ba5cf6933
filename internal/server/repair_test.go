package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/grouplog"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// TestCutPeerLinkLeavesNoHole: while two members churn a group's floor,
// the link from the group's owner to its replica loses everything in
// flight for a while — the forwards of a failing link's backlog — and
// then carries the newer ones again. Once the owner counts nothing
// unacked, it is killed and the replica adopts the group: the adopted
// log must run without a GSeq hole and equal the owner's last view,
// event for event, and so must the floor.
func TestCutPeerLinkLeavesNoHole(t *testing.T) {
	n := netsim.New(26)
	nodes := []string{"n0:1", "n1:1"}
	ownedBy0 := func(prefix string) string { return ownedBy(nodes, 0, prefix) }
	var srvs []*Server
	for i := range nodes {
		srv, err := New(Config{
			Network: n, Addr: nodes[i], ProbeInterval: 20 * time.Millisecond,
			Cluster: &ClusterConfig{Nodes: nodes, Self: i, Network: n.From(netsim.Host(nodes[i]))},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
	}
	owner, replica := srvs[0], srvs[1]
	g := ownedBy0("hall")
	var members []*client.Client
	for _, who := range []string{"alice", "bob"} {
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: nodes[0], Name: ownedBy0(who),
			Role: "participant", Priority: 2, Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		members = append(members, c)
	}

	// Each member takes the floor and hands it back, turn about: every
	// turn logs a grant and a release, 201 events in all, which the
	// owner's log retains whole. The link is cut for turns 30 to 59,
	// so newer forwards land behind the loss, and again from turn 90 to
	// the end, so the last events and floor reach the replica only by
	// repair.
	for i := 0; i < 100; i++ {
		switch i {
		case 30, 90:
			n.Partition("n0", "n1", true)
		case 60:
			n.Partition("n0", "n1", false)
		}
		c := members[i%2]
		if dec, err := c.RequestFloor(g, floor.EqualControl, ""); err != nil || !dec.Granted {
			t.Fatalf("turn %d: request %+v %v", i, dec, err)
		}
		if err := c.ReleaseFloor(g); err != nil {
			t.Fatalf("turn %d: release %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The last grant stands, so the floor the replica must end with is
	// one only a repair can bring it.
	if dec, err := members[0].RequestFloor(g, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("last request: %+v %v", dec, err)
	}
	n.Partition("n0", "n1", false)
	waitFor(t, "the owner to count nothing unacked", func() bool { return owner.ReplicationPending() == 0 })

	want := owner.logs.Get(g).Dump()
	wantFloor := owner.floorCtl.Snapshot(g)
	owner.Close()
	if !replica.servesGroup(g) {
		t.Fatal("the replica did not adopt the group of its dead owner")
	}
	got := replica.logs.Get(g).Dump()
	for i, e := range got {
		if e.GSeq != int64(i+1) {
			t.Fatalf("adopted log has a hole: GSeq %d at position %d (of %d)", e.GSeq, i, len(got))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adopted log (%d events, head %d) differs from the owner's (%d events, head %d)", len(got), head(got), len(want), head(want))
	}
	if gotFloor := replica.floorCtl.Snapshot(g); !reflect.DeepEqual(gotFloor, wantFloor) {
		t.Fatalf("adopted floor %+v, owner's %+v", gotFloor, wantFloor)
	}
}

// TestRestartWithoutJournalReplacesTheReplica: an owner restarted
// without a journal, and never marked down, begins its group's log
// again at GSeq 1, below the head its replica holds of the previous
// life. The replica refuses the new life's records and acks that old
// head, past what it was shipped; the owner moves the log past it and
// repairs with a package, so the replica, and an adoption from it, hold
// the new life's roster and floor, not the old one's.
func TestRestartWithoutJournalReplacesTheReplica(t *testing.T) {
	n := netsim.New(43)
	nodes := []string{"n0:1", "n1:1"}
	start := func(i int) *Server {
		srv, err := New(Config{
			Network: n, Addr: nodes[i], ProbeInterval: 20 * time.Millisecond,
			Cluster: &ClusterConfig{Nodes: nodes, Self: i, Network: n.From(netsim.Host(nodes[i]))},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv
	}
	g := ownedBy(nodes, 0, "hall")
	request := func(who string) {
		t.Helper()
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: nodes[0], Name: ownedBy(nodes, 0, who),
			Role: "participant", Priority: 2, Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RequestFloor(g, floor.EqualControl, ""); err != nil {
			t.Fatalf("%s's request: %v", who, err)
		}
	}
	owner, replica := start(0), start(1)
	request("alice")
	request("bob") // queued behind alice
	waitFor(t, "the first life at the replica", func() bool {
		return owner.ReplicationPending() == 0 && replica.ReplicaHead(g) >= 4
	})
	old := replica.ReplicaHead(g)
	owner.Close()

	owner = start(0)
	request("carol")
	waitFor(t, "the second life at the replica", func() bool {
		return owner.ReplicationPending() == 0 && replica.ReplicaHead(g) > old
	})
	want, _ := owner.registry.GroupMemberIDs(g)
	wantFloor := owner.floorCtl.Snapshot(g)
	owner.Close()
	if !replica.servesGroup(g) {
		t.Fatal("the replica did not adopt the group of its dead owner")
	}
	got, _ := replica.registry.GroupMemberIDs(g)
	if gotFloor := replica.floorCtl.Snapshot(g); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFloor, wantFloor) {
		t.Fatalf("adopted roster %v and floor %+v; the second life's were %v and %+v", got, gotFloor, want, wantFloor)
	}
}

// ownedBy is the first key prefix0, prefix1, … that node natively owns.
func ownedBy(nodes []string, node int, prefix string) string {
	pmap := cluster.NewMap(nodes)
	for i := 0; ; i++ {
		if key := fmt.Sprintf("%s%d", prefix, i); pmap.Primary(key) == node {
			return key
		}
	}
}

func head(es []grouplog.Entry) int64 {
	if len(es) == 0 {
		return 0
	}
	return es[len(es)-1].GSeq
}

// TestRepairSkipsAnOpenCircuit: a replica that cannot be dialled opens
// its peer circuit, and while it stays open the probe tick sends it no
// repair, however long its pairs stay behind.
func TestRepairSkipsAnOpenCircuit(t *testing.T) {
	n := netsim.New(27)
	nodes := []string{"n0:1", "n1:1"} // n1 never listens
	ownedBy0 := func(prefix string) string { return ownedBy(nodes, 0, prefix) }
	owner, err := New(Config{
		Network: n, Addr: nodes[0], ProbeInterval: 20 * time.Millisecond,
		Cluster: &ClusterConfig{Nodes: nodes, Self: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	owner.Start()
	t.Cleanup(owner.Close)
	c, err := client.Dial(client.Config{Network: n.From("alicehost"), Addr: nodes[0], Name: ownedBy0("alice"), Role: "participant", Priority: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Join(ownedBy0("hall")); err != nil {
		t.Fatal(err)
	}
	open := func() bool { return owner.cluster.pool.PeerStats()[nodes[1]].CircuitOpen }
	waitFor(t, "the replica's circuit to open", open)
	before := owner.cluster.repairs.Load()
	// The circuit stays open for a second (circuitCooloff); the pairs are
	// due after 200 ms, so half a second of ticks would repair them.
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if got := owner.cluster.repairs.Load(); open() && got != before {
			t.Fatalf("%d repairs sent into an open circuit", got-before)
		}
	}
	if owner.ReplicationPending() == 0 {
		t.Fatal("nothing pending for a replica that never answered")
	}
}

// TestDumpReadsTheFloorWithTheLog: a package's floor snapshot is of the
// moment of its events — the floor its last floor event left — while
// floor transitions race the dump. A repair ships such a package, and
// the replica acks the package's last event: a floor older than that
// event would then be taken for caught up, and adopted.
func TestDumpReadsTheFloorWithTheLog(t *testing.T) {
	l := newLab(t)
	c := l.dial("alice", "participant", 2)
	if err := c.Join("hall"); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := c.RequestFloor("hall", floor.EqualControl, ""); err != nil {
				done <- err
				return
			}
			if err := c.ReleaseFloor("hall"); err != nil {
				done <- err
				return
			}
		}
	}()
	checked := 0
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		p := l.srv.dump("hall", nil)
		var last protocol.FloorEventBody
		seen := false
		for _, e := range p.Events {
			if e.Class == protocol.ClassFloor {
				msg, err := protocol.DecodeBinary(e.Wire)
				if err != nil || msg.Into(&last) != nil {
					t.Fatalf("floor event GSeq %d does not decode: %v", e.GSeq, err)
				}
				seen = true
			}
		}
		snap, err := floor.DecodeSnapshot(p.Floor)
		if err != nil {
			t.Fatal(err)
		}
		if seen {
			checked++
			if string(snap.Holder) != last.Holder {
				t.Fatalf("package of %d events: floor holder %q, its last floor event's %q", len(p.Events), snap.Holder, last.Holder)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d packages carried a floor event", checked)
	}
}

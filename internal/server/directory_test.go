package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/grouplog"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// TestConcurrentJoinsReachTheAdopter: 16 members join one group (its
// chair made it first) on a 2-node cluster at once. Each join appends
// the roster, read under the
// group log's lock, as the log's next directory entry, so the entry with
// the highest GSeq states the newest roster. Once the owner counts
// nothing unacked it is closed, and the adopter's roster must equal the
// owner's.
func TestConcurrentJoinsReachTheAdopter(t *testing.T) {
	n := netsim.New(41)
	nodes := []string{"n0:1", "n1:1"}
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
	g := ownedBy(nodes, 0, "hall")
	var members []*client.Client
	for i := 0; i <= 16; i++ {
		who := ownedBy(nodes, 0, fmt.Sprintf("m%d-", i))
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: nodes[0], Name: who,
			Role: "participant", Priority: 2, Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		t.Cleanup(c.Close)
		members = append(members, c)
	}
	if err := members[0].Join(g); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make(chan error, len(members))
	var wg sync.WaitGroup
	for _, c := range members[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- c.Join(g)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the owner to count nothing unacked", func() bool { return owner.ReplicationPending() == 0 })
	want, _ := owner.registry.GroupMemberIDs(g)
	wantChair, _ := owner.registry.Chair(g)
	owner.Close()
	if !replica.servesGroup(g) {
		t.Fatal("the replica did not adopt the group of its dead owner")
	}
	got, _ := replica.registry.GroupMemberIDs(g)
	slices.Sort(want)
	slices.Sort(got)
	if gotChair, _ := replica.registry.Chair(g); !slices.Equal(got, want) || gotChair != wantChair || len(want) != len(members) {
		t.Fatalf("adopted roster %v (chair %s), owner's %v (chair %s)", got, gotChair, want, wantChair)
	}
}

// wireTap keeps every frame its connections receive, before the client
// library decodes (and would silently drop) anything.
type wireTap struct {
	transport.Network
	mu    sync.Mutex
	wires [][]byte
}

func (w *wireTap) Dial(addr string) (transport.Conn, error) {
	c, err := w.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tappedConn{Conn: c, tap: w}, nil
}

func (w *wireTap) received() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.wires)
}

type tappedConn struct {
	transport.Conn
	tap *wireTap
}

func (c tappedConn) Recv() ([]byte, error) {
	wire, err := c.Conn.Recv()
	if err == nil {
		c.tap.mu.Lock()
		c.tap.wires = append(c.tap.wires, wire)
		c.tap.mu.Unlock()
	}
	return wire, err
}

// TestClientsNeverSeeDirectoryEntries: directory entries take GSeqs in
// a group's log, but a client that wants every class sees none of them
// — not live, not in a backfill, not in the lights heads digest and not
// in a snapshot's ClassSeqs — while joins and leaves append them.
func TestClientsNeverSeeDirectoryEntries(t *testing.T) {
	n := netsim.New(42)
	srv, err := New(Config{Network: n, Addr: "server:1", ProbeInterval: 20 * time.Millisecond, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	dial := func(name string, network transport.Network) *client.Client {
		c, err := client.Dial(client.Config{Network: network, Addr: "server:1", Name: name, Role: "participant", Priority: 2, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		t.Cleanup(c.Close)
		return c
	}
	const g = "hall"
	tap := &wireTap{Network: n.From("watcherhost")}
	watcher := dial("watcher", tap)
	others := map[string]*client.Client{}
	for _, who := range []string{"alice", "bob", "carol", "dave"} {
		others[who] = dial(who, n.From(who+"host"))
	}
	churn := func(join, leave string) {
		t.Helper()
		if err := others[join].Join(g); err != nil {
			t.Fatal(err)
		}
		if err := others[leave].Leave(g); err != nil {
			t.Fatal(err)
		}
		if _, err := others[join].RequestFloor(g, floor.EqualControl, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := watcher.Join(g); err != nil {
		t.Fatal(err)
	}
	if err := others["alice"].Join(g); err != nil {
		t.Fatal(err)
	}
	floorEvent := func(cseq int64) func() bool {
		return func() bool {
			return slices.ContainsFunc(tap.received(), func(wire []byte) bool {
				msg, err := protocol.DecodeBinary(wire)
				return err == nil && msg.Class == protocol.ClassFloor && msg.CSeq == cseq
			})
		}
	}
	churn("bob", "alice") // live
	waitFor(t, "the live floor event", floorEvent(1))
	watcher.Drop()
	churn("carol", "bob") // missed: comes back in the backfill
	if err := watcher.Reconnect(); err != nil {
		t.Fatal(err)
	}
	// Before the next transition: a backfill served after it would skip
	// this event, which that transition's own event restates.
	waitFor(t, "the backfilled floor event", floorEvent(2))
	churn("dave", "carol") // live again
	// A snapshot on request.
	if err := watcher.Replay(g, 0); err != nil {
		t.Fatal(err)
	}
	var entries int
	for _, e := range srv.logs.Get(g).Dump() {
		if e.Class == grouplog.ClassDirectory {
			entries++
		}
	}
	if entries != 8 {
		t.Fatalf("the log holds %d directory entries, want one per join and leave, 8", entries)
	}
	var snapshots, lights int
	var floorSeqs []int64
	waitFor(t, "floor events 1 to 3 and a lights push with their head", func() bool {
		seen := map[int64]bool{}
		for _, wire := range tap.received() {
			var body protocol.LightsBody
			msg, err := protocol.DecodeBinary(wire)
			if err == nil && msg.Class == protocol.ClassFloor {
				seen[msg.CSeq] = true
			}
			if err == nil && msg.Type == protocol.TLights && msg.Into(&body) == nil && body.Heads[g][protocol.ClassFloor] == 3 {
				seen[0] = true
			}
		}
		return len(seen) == 4
	})
	for _, wire := range tap.received() {
		// A directory entry's record bytes, JSON, are no frame and
		// would not decode.
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			t.Fatalf("the client got a frame that does not decode: %v", err)
		}
		if msg.Class == grouplog.ClassDirectory {
			t.Fatalf("the client got a %s frame of the directory class", msg.Type)
		}
		if msg.Class == protocol.ClassFloor {
			floorSeqs = append(floorSeqs, msg.CSeq)
		}
		var heads map[string]map[string]int64
		switch msg.Type {
		case protocol.TSnapshot:
			var body protocol.SnapshotBody
			if err := msg.Into(&body); err != nil {
				t.Fatal(err)
			}
			heads, snapshots = map[string]map[string]int64{g: body.ClassSeqs}, snapshots+1
		case protocol.TLights:
			var body protocol.LightsBody
			if err := msg.Into(&body); err != nil {
				t.Fatal(err)
			}
			heads, lights = body.Heads, lights+1
		}
		for key, classes := range heads {
			if _, ok := classes[grouplog.ClassDirectory]; ok {
				t.Fatalf("a %s names the directory class of %s: %v", msg.Type, key, classes)
			}
		}
	}
	for _, cseq := range []int64{1, 2, 3} {
		if !slices.Contains(floorSeqs, cseq) {
			t.Fatalf("floor CSeqs %v: the live events and the backfill did not all arrive", floorSeqs)
		}
	}
	if snapshots < 2 || lights == 0 {
		t.Fatalf("checked %d snapshots and %d lights pushes, want the join's and the replay's, and one push", snapshots, lights)
	}
}

package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/resource"
)

// TestPartitionPackageRoundTrip carries two group keys and a member key
// through every path a partition package takes — a migration's takeover
// over the wire, a replica store's standby copy adopted on failover, an
// install journalled and replayed, a checkpoint replayed — and requires
// the package dumped at the far end to equal the one dumped at the
// source (the migration's epoch aside). One group holds a roster and
// chair; a floor with a holder, a two-deep queue, a suspended member and
// a pin; a coalesced board burst; floor, suspend and board events. The
// other is moderated: the chair holds the floor and has approved a
// queued member, and a Direct Contact window is open; at the far end
// the window is still open and the chair's release grants the approved
// member. The member key holds a row, a resume token and an invitation.
// Every node is a one-node ring on netsim under a simulated clock, so
// every key is native and nothing runs on a timer.
func TestPartitionPackageRoundTrip(t *testing.T) {
	n := netsim.New(21)
	sim := clock.NewSim(time.Unix(3000, 0))
	node := func(addr, walDir string) *Server {
		t.Helper()
		srv, err := New(Config{
			Network: n, Addr: addr, Clock: sim, ProbeInterval: time.Hour, WALDir: walDir,
			Cluster: &ClusterConfig{Nodes: []string{addr}, Self: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv
	}
	srcDir := t.TempDir()
	src := node("src:1", srcDir)

	members := map[string]*client.Client{}
	for _, who := range []string{"alice", "bob", "carol", "dave"} {
		role := "participant"
		if who == "alice" {
			role = "chair"
		}
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: "src:1", Name: who,
			Role: role, Priority: 2, Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join("hall"); err != nil {
			t.Fatal(err)
		}
		members[who] = c
	}
	alice, dave := members["alice"], group.MemberID(members["dave"].MemberID())
	for i, who := range []string{"alice", "bob", "carol"} {
		dec, err := members[who].RequestFloor("hall", floor.EqualControl, "")
		if err != nil || dec.Granted != (i == 0) || dec.QueuePosition != i {
			t.Fatalf("%s floor request: %+v %v", who, dec, err)
		}
	}
	hallFloor := src.floorCtl.Snapshot("hall")
	hallFloor.Suspended, hallFloor.Pinned = []group.MemberID{dave}, true
	src.floorCtl.Restore("hall", hallFloor)
	src.logSuspend("hall", protocol.TSuspend, string(dave), resource.Degraded, traceCtx{})
	// A leading-edge line, then two inside its pacing slot: one batch,
	// logged as one event carrying the third op in More.
	for i, line := range []string{"one", "two", "three"} {
		if i == 1 {
			sim.Advance(time.Millisecond)
		}
		if err := alice.Chat("hall", line); err != nil {
			t.Fatal(err)
		}
	}
	if src.FlushBoardBatches() != 1 {
		t.Fatal("the held lines did not flush as one batch")
	}
	if err := alice.Join("side"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Invite("side", string(dave)); err != nil {
		t.Fatal(err)
	}
	bob, carol := members["bob"].MemberID(), members["carol"].MemberID()
	for _, who := range []string{"alice", "bob", "carol", "dave"} {
		if err := members[who].Join("seminar"); err != nil {
			t.Fatal(err)
		}
	}
	for i, who := range []string{"alice", "bob", "carol"} {
		dec, err := members[who].RequestFloor("seminar", floor.ModeratedQueue, "")
		if err != nil || dec.Granted != (i == 0) || dec.QueuePosition != i {
			t.Fatalf("%s moderated request: %+v %v", who, dec, err)
		}
	}
	if dec, err := alice.ApproveFloor("seminar", bob); err != nil || dec.Granted {
		t.Fatalf("approval: %+v %v", dec, err)
	}
	if dec, err := members["dave"].RequestFloor("seminar", floor.DirectContact, carol); err != nil || !dec.Granted {
		t.Fatalf("direct contact: %+v %v", dec, err)
	}
	keys := []string{grouplog.MemberKey(string(dave)), "hall", "seminar"}
	// Board lines and invitations are acked before their events are
	// appended: wait for all of them — after the four joins' directory
	// entries, three floor events, the suspension and two board events;
	// after dave's admission entry, the invitation — so that nothing
	// lands after the source is dumped.
	waitFor(t, "every event to be logged", func() bool {
		return src.logs.Get(keys[0]).Head() == 2 && src.logs.Get("hall").Head() == 10
	})

	want := map[string]protocol.TakeoverBody{}
	for _, key := range keys {
		want[key] = src.dump(key, nil)
	}
	hall := want["hall"]
	if fs, err := floor.DecodeSnapshot(hall.Floor); hall.Chair != alice.MemberID() || len(hall.Members) != 4 || hall.BoardHead != 3 ||
		err != nil || string(fs.Holder) != alice.MemberID() || len(fs.Queue) != 2 || len(fs.Suspended) != 1 || !fs.Pinned {
		t.Fatalf("source group package is missing state: %+v floor %+v %v", hall, fs, err)
	}
	// dave's member log: his admission's directory entry and the invitation.
	if home := want[keys[0]]; home.Member == nil || home.Token == "" || len(home.Events) != 2 {
		t.Fatalf("source member package is missing state: %+v", home)
	}
	if fs, err := floor.DecodeSnapshot(want["seminar"].Floor); err != nil || len(fs.Approved) != 1 || len(fs.Contacts) != 2 {
		t.Fatalf("source moderated package is missing state: %+v %v", fs, err)
	}

	bursts := 0
	for _, e := range hall.Events {
		var body protocol.SequencedBody
		if msg, err := protocol.DecodeBinary(e.Wire); err == nil && e.Class == protocol.ClassBoard && msg.Into(&body) == nil && len(body.More) == 1 {
			bursts++
		}
	}
	if bursts != 1 {
		t.Fatalf("the group's log holds %d coalesced bursts, want 1", bursts)
	}
	paths := []struct {
		name string
		// land carries the source's packages to a node and returns the
		// node to dump them from.
		land func(addr string) *Server
	}{
		{"migration takeover", func(addr string) *Server {
			dst := node(addr, "")
			for _, key := range keys {
				p := want[key]
				p.Epoch = 7
				rec, err := protocol.PackageRecord(p)
				if err != nil {
					t.Fatal(err)
				}
				msg, err := protocol.DecodeAny(cluster.WrapForward(protocol.ForwardBody{Kind: protocol.ForwardTakeover, Record: rec}))
				var fwd protocol.ForwardBody
				if err != nil || msg.Into(&fwd) != nil || fwd.Kind != protocol.ForwardTakeover {
					t.Fatalf("takeover forward: %v", err)
				}
				if err := dst.installTakeover(fwd.Record); err != nil {
					t.Fatalf("takeover install: %v", err)
				}
			}
			return dst
		}},
		{"failover adoption from the replica store", func(addr string) *Server {
			dst := node(addr, "")
			for _, key := range keys {
				rec, err := protocol.PackageRecord(want[key])
				if err == nil {
					_, err = dst.cluster.store.ApplyRecord(rec)
				}
				if err != nil {
					t.Fatal(err)
				}
				dst.cluster.mu.Lock()
				dst.adoptLocked(key)
				dst.cluster.mu.Unlock()
			}
			return dst
		}},
		{"install journalled and replayed", func(addr string) *Server {
			dir := t.TempDir()
			first := node(addr+"-first", dir)
			for _, key := range keys {
				first.install(want[key], false)
			}
			first.Close()
			return node(addr, dir)
		}},
		{"checkpoint replayed", func(addr string) *Server {
			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			src.Close()
			return node(addr, srcDir)
		}},
	}
	for i, path := range paths {
		dst := path.land("dst" + string(rune('a'+i)) + ":1")
		for _, key := range keys {
			if got := dst.dump(key, nil); !reflect.DeepEqual(got, want[key]) {
				t.Errorf("%s: %s arrived as\n %+v\nwant\n %+v", path.name, key, got, want[key])
			}
		}
		if errs := dst.installErrs.Load(); errs != 0 {
			t.Errorf("%s: %d install steps failed", path.name, errs)
		}
		if peer := dst.floorCtl.ContactPeer("seminar", dave); string(peer) != carol {
			t.Errorf("%s: dave's Direct Contact peer is %q, want %s", path.name, peer, carol)
		}
		if next, err := dst.floorCtl.Release("seminar", group.MemberID(alice.MemberID())); err != nil || string(next) != bob {
			t.Errorf("%s: the chair's release granted %q (%v), want the approved %s", path.name, next, err, bob)
		}
	}
}

// TestMixedAuthorBurstSurvivesTransfer: a board event whose burst
// carries two authors' operations lands op for op, each with its own
// author, through WAL replay and through failover adoption from the
// replica store, whose board head follows the whole burst.
func TestMixedAuthorBurstSurvivesTransfer(t *testing.T) {
	n := netsim.New(23)
	sim := clock.NewSim(time.Unix(3000, 0))
	node := func(addr, walDir string) *Server {
		t.Helper()
		srv, err := New(Config{
			Network: n, Addr: addr, Clock: sim, ProbeInterval: time.Hour, WALDir: walDir,
			Cluster: &ClusterConfig{Nodes: []string{addr}, Self: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv
	}
	dir := t.TempDir()
	src := node("src:1", dir)
	var authors []*client.Client
	for _, who := range []string{"ann", "bob"} {
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: "src:1", Name: who,
			Role: "participant", Priority: 2, Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join("hall"); err != nil {
			t.Fatal(err)
		}
		authors = append(authors, c)
	}
	// A leading-edge stroke, then three alternating strokes inside its
	// pacing slot: one batch, top-level op 2 with ops 3 and 4 in More.
	for i := 0; i < 4; i++ {
		if err := authors[i%2].Annotate("hall", "draw", fmt.Sprintf("stroke %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if src.FlushBoardBatches() != 1 {
		t.Fatal("the held strokes did not flush as one batch")
	}
	// The two joins' directory entries, then both board events.
	waitFor(t, "both board events to be logged", func() bool { return src.logs.Get("hall").Head() == 4 })
	want := src.board("hall").board.Since(0)
	if len(want) != 4 || want[1].Author == want[2].Author {
		t.Fatalf("source board %+v, want four strokes by alternating authors", want)
	}
	same := func(path string, dst *Server) {
		t.Helper()
		if got := dst.board("hall").board.Since(0); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: board arrived as %+v, want %+v", path, got, want)
		}
		if errs := dst.installErrs.Load(); errs != 0 {
			t.Errorf("%s: %d install steps failed", path, errs)
		}
	}

	// Failover adoption: the replica store is fed the owner's forwards,
	// the records its journal holds.
	src.Close()
	w, err := grouplog.OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst := node("dst:1", "")
	if err := w.Replay(func(rec grouplog.WALRecord) error {
		if rec.Key != "hall" {
			return nil
		}
		_, err := dst.cluster.store.ApplyRecord(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p, ok := dst.cluster.store.Take("hall")
	if !ok || p.BoardHead != 4 {
		t.Fatalf("replica package %+v (held %v), want board head 4 from the burst's More", p, ok)
	}
	dst.install(p, true) // what adoptLocked does with the package it takes
	same("failover adoption", dst)

	// WAL replay: the source's own journal, read by a fresh process.
	same("WAL replay", node("replay:1", dir))
}

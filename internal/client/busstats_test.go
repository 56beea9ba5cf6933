package client_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/server"
)

// TestSubscriberBackpressureStats drives more floor events at a lazy
// subscriber than its buffer holds: the overflow must be counted in
// SubscriberStats, the events must keep flowing to a diligent
// subscriber, and — the log-plane invariant — the local drops must not
// be mistaken for delivery gaps: no snapshot (the gap repair's
// signature beyond the join-time one) may be triggered.
func TestSubscriberBackpressureStats(t *testing.T) {
	n := netsim.New(31)
	srv, err := server.New(server.Config{Network: n, Addr: "srv:1", ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)

	var snapshots snapshotCounter
	lazyOwner, err := client.Dial(client.Config{
		Network: n, Addr: "srv:1", Name: "watcher", Role: "chair", Priority: 5,
		Timeout: 3 * time.Second,
		OnEvent: snapshots.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lazyOwner.Close)
	requester, err := client.Dial(client.Config{
		Network: n, Addr: "srv:1", Name: "req", Role: "participant", Priority: 2,
		Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(requester.Close)
	for _, c := range []*client.Client{lazyOwner, requester} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}
	snapshots.await(t, 1)

	lazy := lazyOwner.Subscribe(client.FloorEvents) // never drained
	diligent := lazyOwner.Subscribe(client.FloorEvents)

	// Each grant/release cycle publishes two floor events; push well
	// past the lazy channel's 256-slot buffer, ending on a grant so the
	// holder cache has a definite final value. The diligent subscriber
	// takes each event before the next operation goes out, which is
	// what diligent means here: were it drained from a goroutine of its
	// own, a scheduler that starved that goroutine for 256 events (ten
	// milliseconds of this loop) would make it drop too — and the same
	// burst could overflow the server's queue for this session, whose
	// repair is the very snapshot the test forbids.
	const grants = 301
	for i := 0; i < grants/2; i++ {
		if _, err := requester.RequestFloor("class", floor.EqualControl, ""); err != nil {
			t.Fatal(err)
		}
		drain(t, diligent, 1)
		if err := requester.ReleaseFloor("class"); err != nil {
			t.Fatal(err)
		}
		drain(t, diligent, 1)
	}
	if _, err := requester.RequestFloor("class", floor.EqualControl, ""); err != nil {
		t.Fatal(err)
	}
	drain(t, diligent, 1)
	// Delivery is asynchronous: wait until every event reached the bus.
	waitLong(t, func() bool {
		stats := lazyOwner.SubscriberStats()
		return len(stats) == 2 &&
			stats[0].Delivered+stats[0].Dropped >= grants &&
			stats[1].Delivered+stats[1].Dropped >= grants
	})

	stats := lazyOwner.SubscriberStats()
	lazyStats, diligentStats := stats[0], stats[1]
	if lazyStats.Cap != 256 || lazyStats.Buffered != 256 {
		t.Errorf("lazy subscriber buffer = %d/%d, want full at 256", lazyStats.Buffered, lazyStats.Cap)
	}
	if lazyStats.Delivered != 256 {
		t.Errorf("lazy Delivered = %d, want 256", lazyStats.Delivered)
	}
	if got := lazyStats.Delivered + lazyStats.Dropped; got < grants {
		t.Errorf("lazy delivered+dropped = %d, want ≥ %d", got, grants)
	}
	if diligentStats.Dropped != 0 || diligentStats.Delivered < grants {
		t.Errorf("diligent stats = %+v, want zero drops and ≥ %d delivered", diligentStats, grants)
	}
	if len(lazyStats.Kinds) != 1 || lazyStats.Kinds[0] != client.FloorEvents {
		t.Errorf("kinds = %v", lazyStats.Kinds)
	}

	// The read loop stayed in sequence throughout (holder cache is the
	// last grant), and the local drops triggered no gap repair.
	waitLong(t, func() bool { return lazyOwner.Holder("class") == requester.MemberID() })
	if extra := snapshots.n.Load() - 1; extra != 0 {
		t.Errorf("%d snapshots after local subscriber drops: gap detection was fooled", extra)
	}
	_ = lazy
}

// snapshotCounter is an OnEvent tap counting the snapshots a client has
// applied. The server sends a join's snapshot after the join's ack, so
// a test that needs the snapshot behind it — a baseline count, a
// subscription that must not see the snapshot's floor event — awaits it
// here rather than assuming it beat Join's return.
type snapshotCounter struct{ n atomic.Int64 }

func (s *snapshotCounter) tap(msg protocol.Message) {
	if msg.Type == protocol.TSnapshot {
		s.n.Add(1)
	}
}

func (s *snapshotCounter) await(t *testing.T, want int64) {
	t.Helper()
	waitLong(t, func() bool { return s.n.Load() >= want })
}

// waitLong polls a condition with a CI-friendly deadline: this file's
// tests push hundreds of round trips, so the 3s default is too tight
// under a loaded runner.
func waitLong(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReconnectRequiresConnectionLoss: a live client refuses to
// reconnect, and a Closed one stays closed.
func TestReconnectRequiresConnectionLoss(t *testing.T) {
	n := netsim.New(32)
	srv, err := server.New(server.Config{Network: n, Addr: "srv:1", ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	c, err := client.Dial(client.Config{Network: n, Addr: "srv:1", Name: "x", Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reconnect(); err == nil {
		t.Error("reconnect while connected should fail")
	}
	c.Close()
	if err := c.Reconnect(); !errors.Is(err, client.ErrClosed) {
		t.Errorf("reconnect after Close: %v, want ErrClosed", err)
	}
}

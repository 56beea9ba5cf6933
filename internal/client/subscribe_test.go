package client_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/netsim"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// subscribeHarness boots a netsim server and dials n participants (the
// first is a chair), all joined into "class".
func subscribeHarness(t *testing.T, seed int64, n int) []*client.Client {
	t.Helper()
	net := netsim.New(seed)
	// Probes parked out of the way.
	srv, err := server.New(server.Config{
		Network: net, Addr: "srv:1",
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	clients := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		role := "participant"
		if i == 0 {
			role = "chair"
		}
		c, err := client.Dial(client.Config{
			Network: net, Addr: "srv:1",
			Name: fmt.Sprintf("m%d", i), Role: role, Priority: 2,
			Timeout: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	return clients
}

// drain collects want events from ch, failing the test on timeout.
func drain(t *testing.T, ch <-chan client.Event, want int) []client.Event {
	t.Helper()
	out := make([]client.Event, 0, want)
	deadline := time.After(5 * time.Second)
	for len(out) < want {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d/%d events", len(out), want)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", len(out), want)
		}
	}
	return out
}

// TestSubscribeOrderingUnderConcurrentGrants asserts that two
// subscriptions on the same client observe an identical event order while
// several peers are granted the floor concurrently.
func TestSubscribeOrderingUnderConcurrentGrants(t *testing.T) {
	clients := subscribeHarness(t, 11, 4)
	watcher, requesters := clients[0], clients[1:]
	chA := watcher.Subscribe(client.FloorEvents)
	chB := watcher.Subscribe() // all kinds; floor events must agree with chA

	const perClient = 5
	var wg sync.WaitGroup
	for _, c := range requesters {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if _, err := c.RequestFloor("class", floor.FreeAccess, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	want := len(requesters) * perClient
	evsA := drain(t, chA, want)
	key := func(ev client.Event) string {
		return ev.Floor.Member + "/" + ev.Floor.Event
	}
	// chB sees every kind; keep only floor events.
	var evsB []client.Event
	for _, ev := range drain(t, chB, want) {
		if ev.Kind == client.FloorEvents {
			evsB = append(evsB, ev)
		}
	}
	for len(evsB) < want {
		ev := <-chB
		if ev.Kind == client.FloorEvents {
			evsB = append(evsB, ev)
		}
	}
	for i := range evsA {
		if ev := evsA[i]; ev.Kind != client.FloorEvents || ev.Group != "class" || ev.Floor.Event != "granted" {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if key(evsA[i]) != key(evsB[i]) {
			t.Fatalf("subscriber order diverged at %d: %q vs %q", i, key(evsA[i]), key(evsB[i]))
		}
	}
	watcher.Unsubscribe(chA)
	if _, ok := <-chA; ok {
		t.Error("Unsubscribe should close the channel")
	}
}

// TestSubscribeQueuePositions tracks a queued member's pushed position
// updates through grant, queueing and release promotion.
func TestSubscribeQueuePositions(t *testing.T) {
	clients := subscribeHarness(t, 12, 3)
	a, b, c := clients[0], clients[1], clients[2]
	events := c.Subscribe(client.FloorEvents)

	if dec, err := a.RequestFloor("class", floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("a: %+v %v", dec, err)
	}
	if dec, err := b.RequestFloor("class", floor.EqualControl, ""); err != nil || dec.QueuePosition != 1 {
		t.Fatalf("b: %+v %v", dec, err)
	}
	if dec, err := c.RequestFloor("class", floor.EqualControl, ""); err != nil || dec.QueuePosition != 2 {
		t.Fatalf("c: %+v %v", dec, err)
	}

	// c observes: a's grant, b's... (queued events go only to the queuer),
	// its own queued at 2, then after a's release: the release broadcast
	// and its promotion to position 1.
	waitFor(t, func() bool { return c.QueuePosition("class") == 2 })
	if err := a.ReleaseFloor("class"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.QueuePosition("class") == 1 })
	if err := b.ReleaseFloor("class"); err != nil {
		t.Fatal(err)
	}
	// c becomes holder via promotion: slot clears without a "granted".
	waitFor(t, func() bool { return c.QueuePosition("class") == 0 })
	waitFor(t, func() bool { return c.Holder("class") == c.MemberID() })

	// The pushed positions for c must be monotonically non-increasing.
	got := []int{}
	timeout := time.After(2 * time.Second)
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.Floor.Member == c.MemberID() && (ev.Floor.Event == "queued" || ev.Floor.Event == "queue_position") {
				got = append(got, ev.Floor.QueuePosition)
			}
			if ev.Floor.Event == "released" && ev.Floor.Holder == c.MemberID() {
				done = true
			}
		case <-timeout:
			t.Fatalf("positions so far: %v", got)
		}
	}
	if len(got) < 2 || got[0] != 2 || got[len(got)-1] != 1 {
		t.Errorf("positions = %v, want 2 … 1", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Errorf("positions increased: %v", got)
		}
	}
}

// TestSubscribeDeniedEvent: a denied floor request is pushed to the
// requester's event stream as a "denied" event, not only returned as the
// request error — subscribers watching FloorEvents see every outcome.
func TestSubscribeDeniedEvent(t *testing.T) {
	net := netsim.New(15)
	srv, err := server.New(server.Config{Network: net, Addr: "srv:1", ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	// Priority 1 is below the token modes' requirement, so the request
	// below is denied outright (neither granted nor queued).
	var snapshots snapshotCounter
	weak, err := client.Dial(client.Config{
		Network: net, Addr: "srv:1",
		Name: "weak", Role: "participant", Priority: 1,
		Timeout: 3 * time.Second,
		OnEvent: snapshots.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(weak.Close)
	if err := weak.Join("class"); err != nil {
		t.Fatal(err)
	}
	snapshots.await(t, 1)
	events := weak.Subscribe(client.FloorEvents)
	if _, err := weak.RequestFloor("class", floor.EqualControl, ""); err == nil {
		t.Fatal("low-priority request should be denied")
	}
	ev := drain(t, events, 1)[0]
	if ev.Floor.Event != "denied" || ev.Floor.Member != weak.MemberID() || ev.Group != "class" {
		t.Fatalf("event = %+v, want a denied event for this member", ev)
	}
}

// TestDirectContactGrantKeepsHolderView: a Direct Contact grant runs
// concurrently with the prevailing mode and its broadcast carries no
// holder — it must not clear the other clients' cached floor holder.
func TestDirectContactGrantKeepsHolderView(t *testing.T) {
	clients := subscribeHarness(t, 17, 3)
	a, b, c := clients[0], clients[1], clients[2]
	events := a.Subscribe(client.FloorEvents)
	if dec, err := a.RequestFloor("class", floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("a: %+v, %v", dec, err)
	}
	waitFor(t, func() bool { return a.Holder("class") == a.MemberID() })
	if dec, err := b.RequestFloor("class", floor.DirectContact, c.MemberID()); err != nil || !dec.Granted {
		t.Fatalf("b: %+v, %v", dec, err)
	}
	// Wait until a has seen b's direct-contact grant broadcast.
	for {
		if ev := drain(t, events, 1)[0]; ev.Floor.Event == "granted" && ev.Floor.Member == b.MemberID() {
			break
		}
	}
	if got := a.Holder("class"); got != a.MemberID() {
		t.Errorf("holder view = %q, want %q (direct-contact grant must not clobber it)", got, a.MemberID())
	}
}

// TestUnsubscribeDuringEventFlow churns Subscribe/Unsubscribe while the
// read loop is delivering events. Under -race this guards the publish/
// Unsubscribe exclusion: closing a channel mid-fan-out used to panic the
// read loop with a send on a closed channel.
func TestUnsubscribeDuringEventFlow(t *testing.T) {
	clients := subscribeHarness(t, 16, 2)
	watcher, requester := clients[0], clients[1]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			if _, err := requester.RequestFloor("class", floor.FreeAccess, ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for churning := true; churning; {
		ch := watcher.Subscribe(client.FloorEvents)
		watcher.Unsubscribe(ch)
		select {
		case <-done:
			churning = false
		default:
		}
	}
	// The bus still works after the churn.
	ch := watcher.Subscribe(client.FloorEvents)
	if _, err := requester.RequestFloor("class", floor.FreeAccess, ""); err != nil {
		t.Fatal(err)
	}
	if ev := drain(t, ch, 1)[0]; ev.Floor.Event != "granted" {
		t.Fatalf("event = %+v, want granted", ev)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDialTimesOutWithoutWelcome covers the handshake half of the
// request timeout: a server that accepts but never answers hello must
// not block Dial forever.
func TestDialTimesOutWithoutWelcome(t *testing.T) {
	n := netsim.New(13)
	fakeServer(t, n, func(conn transport.Conn) {
		_, _ = conn.Recv() // swallow hello, never answer
		select {}
	})
	start := time.Now()
	_, err := client.Dial(client.Config{
		Network: n, Addr: "fake:1", Name: "x",
		Timeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Dial blocked %v", elapsed)
	}
}

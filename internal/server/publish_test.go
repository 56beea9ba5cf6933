package server

import (
	"fmt"
	"reflect"
	"sync"
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

// loggedTap records every logged event a client is sent: its class
// sequence per (log, class) in arrival order, and the queue slot each
// floor event carried.
type loggedTap struct {
	mu    sync.Mutex
	cseqs map[string][]int64 // "log/class" → CSeqs as received
	slots map[string]int     // "event/member" → QueuePosition carried
}

func (tap *loggedTap) observe(msg protocol.Message) {
	if msg.CSeq == 0 {
		return
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	key := msg.Group + "/" + msg.Class
	tap.cseqs[key] = append(tap.cseqs[key], msg.CSeq)
	if msg.Type == protocol.TFloorEvent {
		var body protocol.FloorEventBody
		if msg.Into(&body) == nil {
			tap.slots[body.Event+"/"+body.Member] = body.QueuePosition
		}
	}
}

func (tap *loggedTap) seen(key string) []int64 {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]int64(nil), tap.cseqs[key]...)
}

// TestPublishPipelineTable drives the one publish pipeline through each
// of its four entry points — logBroadcast, logFloorEvent, logSuspend,
// logSendTo — on a two-node RF-2 cluster over netsim under a simulated
// clock (every timer-driven publisher is parked, so each step's
// publishes are exactly the ones it names). For every step: the log
// head advances by the publishes named, and the owner ships exactly one
// forward per publish. At the end: every tap received each class's
// CSeqs dense and in order, each queued member saw its own slot on
// every floor event and nobody else's, the retained bytes carry none, the replica holds every event, and the
// journal holds one event record per publish.
func TestPublishPipelineTable(t *testing.T) {
	n := netsim.New(20)
	sim := clock.NewSim(time.Unix(2000, 0))
	nodes := []string{"n0:1", "n1:1"}
	pmap := cluster.NewMap(nodes)
	ownedBy0 := func(prefix string) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("%s%d", prefix, i); pmap.Primary(key) == 0 {
				return key
			}
		}
	}
	walDir := t.TempDir()
	var srvs []*Server
	for i := range nodes {
		cfg := Config{
			Network: n, Addr: nodes[i], Clock: sim, ProbeInterval: time.Hour,
			Cluster: &ClusterConfig{Nodes: nodes, Self: i},
		}
		if i == 0 {
			cfg.WALDir = walDir
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
	}
	owner, replica := srvs[0], srvs[1]

	g := ownedBy0("hall")
	taps := map[string]*loggedTap{}
	members := map[string]*client.Client{}
	for _, who := range []string{"alice", "bob", "carol", "dave"} {
		tap := &loggedTap{cseqs: map[string][]int64{}, slots: map[string]int{}}
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: nodes[0], Name: ownedBy0(who),
			Role: "participant", Priority: 2, Timeout: 2 * time.Second, OnEvent: tap.observe,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		taps[who], members[who] = tap, c
	}
	id := func(who string) string { return members[who].MemberID() }
	daveLog := grouplog.MemberKey(id("dave"))
	// The replica acks the set-up's forwards — a member home per hello, a
	// roster per join — in the background, so wait them out by count
	// before counting the publishes' own.
	waitFor(t, "set-up replication to drain", func() bool {
		sent, _ := owner.cluster.pool.Stats()
		return sent == int64(2*len(members)) && owner.ReplicationPending() == 0
	})

	chat := func(seq int64) protocol.Message {
		return protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{Seq: seq, Author: id("alice"), Kind: "text", Data: "line"})
	}
	request := func(who string, granted bool, slot int) func() {
		return func() {
			dec, err := members[who].RequestFloor(g, floor.EqualControl, "")
			if err != nil || dec.Granted != granted || dec.QueuePosition != slot {
				t.Fatalf("%s floor request: %+v %v, want granted=%v slot=%d", who, dec, err, granted, slot)
			}
		}
	}
	steps := []struct {
		name      string
		log       string
		publishes int64
		run       func()
	}{
		{"logBroadcast: two board events", g, 2, func() {
			owner.logBroadcast(g, chat(1))
			owner.Broadcast(g, chat(2))
		}},
		{"logFloorEvent: a grant", g, 1, request("alice", true, 0)},
		{"logFloorEvent: queued, slot 1", g, 1, request("bob", false, 1)},
		{"logFloorEvent: queued, slot 2", g, 1, request("carol", false, 2)},
		{"logFloorEvent: a queue event", g, 1, func() {
			owner.logFloorEvent(g, true, traceCtx{}, func() (protocol.FloorEventBody, bool) {
				return protocol.FloorEventBody{Event: "queue"}, true
			})
		}},
		{"logSuspend: suspend and resume", g, 2, func() {
			owner.logSuspend(g, protocol.TSuspend, id("bob"), resource.Degraded, traceCtx{})
			owner.logSuspend(g, protocol.TResume, id("bob"), resource.Normal, traceCtx{})
		}},
		{"logSendTo: two invitations", daveLog, 2, func() {
			for inv := int64(1); inv <= 2; inv++ {
				owner.logSendTo(group.MemberID(id("dave")), protocol.MustNew(protocol.TInviteEvent,
					protocol.InviteEventBody{InviteID: inv, Group: g, From: id("alice")}))
			}
		}},
		{"logBroadcast: one more board event", g, 1, func() { owner.logBroadcast(g, chat(3)) }},
	}
	var total int64
	for _, step := range steps {
		head := owner.logs.Get(step.log).Head()
		sent, _ := owner.cluster.pool.Stats()
		step.run()
		waitFor(t, step.name+": the log to take its events", func() bool {
			return owner.logs.Get(step.log).Head() >= head+step.publishes
		})
		if got := owner.logs.Get(step.log).Head() - head; got != step.publishes {
			t.Fatalf("%s: log head advanced by %d, want %d", step.name, got, step.publishes)
		}
		if now, _ := owner.cluster.pool.Stats(); now-sent != step.publishes {
			t.Fatalf("%s: %d forwards for %d publishes", step.name, now-sent, step.publishes)
		}
		total += step.publishes
	}
	if n := owner.logAppendErrs.Load() + owner.walAppendErrs.Load(); n != 0 {
		t.Fatalf("%d append errors counted", n)
	}

	// Dense per-class sequences at every tap: the group's three classes
	// for everyone, the invite class of dave's own log for dave alone.
	dense := func(upTo int64) []int64 {
		var out []int64
		for i := int64(1); i <= upTo; i++ {
			out = append(out, i)
		}
		return out
	}
	want := map[string][]int64{
		g + "/" + protocol.ClassBoard:   dense(3),
		g + "/" + protocol.ClassFloor:   dense(4),
		g + "/" + protocol.ClassSuspend: dense(2),
	}
	for who, tap := range taps {
		for key, seqs := range want {
			waitFor(t, fmt.Sprintf("%s to receive %s", who, key), func() bool { return len(tap.seen(key)) >= len(seqs) })
			if got := tap.seen(key); !reflect.DeepEqual(got, seqs) {
				t.Errorf("%s received %s CSeqs %v, want %v", who, key, got, seqs)
			}
		}
		var wantInvites []int64
		if who == "dave" {
			wantInvites = dense(2)
			waitFor(t, "dave to receive his invitations", func() bool { return len(tap.seen("/"+protocol.ClassInvite)) >= 2 })
		}
		if got := tap.seen("/" + protocol.ClassInvite); !reflect.DeepEqual(got, wantInvites) {
			t.Errorf("%s received invite CSeqs %v, want %v", who, got, wantInvites)
		}
	}

	// Each queued recipient sees its own slot on every state-bearing
	// floor event — bob is told his slot again when carol queues behind
	// him — and a slot reaches only the member who owns it.
	wantSlots := map[string]map[string]int{
		"alice": {"queued/" + id("bob"): 0, "queued/" + id("carol"): 0, "queue/": 0},
		"bob":   {"queued/" + id("bob"): 1, "queued/" + id("carol"): 1, "queue/": 1},
		"carol": {"queued/" + id("bob"): 0, "queued/" + id("carol"): 2, "queue/": 2},
		"dave":  {"queued/" + id("bob"): 0, "queued/" + id("carol"): 0, "queue/": 0},
	}
	for who, slots := range wantSlots {
		taps[who].mu.Lock()
		for event, slot := range slots {
			if got, ok := taps[who].slots[event]; !ok || got != slot {
				t.Errorf("%s saw %q with slot %d (seen=%v), want %d", who, event, got, ok, slot)
			}
		}
		taps[who].mu.Unlock()
	}
	for _, e := range owner.logs.Get(g).Dump() {
		if e.Class == grouplog.ClassDirectory {
			continue // a join's directory entry: no client frame
		}
		msg, err := protocol.DecodeBinary(e.Wire)
		if err != nil {
			t.Fatal(err)
		}
		var body protocol.FloorEventBody
		if msg.Type == protocol.TFloorEvent && (msg.Into(&body) != nil || body.QueuePosition != 0) {
			t.Errorf("retained %s event carries queue slot %d", body.Event, body.QueuePosition)
		}
	}

	// Everything published is on the replica…
	waitFor(t, "replication to drain", func() bool { return owner.ReplicationPending() == 0 })
	if got, want := replica.ReplicaHead(g), owner.logs.Get(g).Head(); got != want {
		t.Errorf("replica holds group events up to %d, owner's head is %d", got, want)
	}
	// dave's admission entry, then his two invitations.
	if got := replica.ReplicaHead(daveLog); got != 3 {
		t.Errorf("replica holds member-log events up to %d, want 3", got)
	}
	// …and in the journal, one event record each, every floor- and
	// suspend-class one carrying the floor snapshot in the same record.
	owner.Close()
	w, err := grouplog.OpenWAL(walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var events, snaps int64
	if err := w.Replay(func(rec grouplog.WALRecord) error {
		if rec.Kind != grouplog.WALEvent || rec.Class == grouplog.ClassDirectory {
			return nil // not a publish: a package, or a directory entry
		}
		events++
		if len(rec.Data) > 0 {
			if _, err := floor.DecodeSnapshot(rec.Data); err != nil {
				t.Errorf("event %d carries an unreadable floor snapshot: %v", rec.GSeq, err)
			}
			snaps++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != total || snaps != 6 {
		t.Errorf("journal holds %d event records, %d of them with a floor snapshot, want %d and 6", events, snaps, total)
	}
}

// TestQueueSlotsRideTheTransition: a holder and three queued members on
// netsim under a simulated clock. The release that promotes the queue's
// front is itself what tells each member still queued their new slot —
// their copy of the "released" event carries it, everyone else's and
// the retained bytes carry 0, and no "queue" event follows. Reaping a
// queued-only member then logs exactly one "queue" event, inline, that
// tells the member behind it its new slot.
func TestQueueSlotsRideTheTransition(t *testing.T) {
	n := netsim.New(22)
	sim := clock.NewSim(time.Unix(4000, 0))
	srv, err := New(Config{Network: n, Addr: "srv:1", Clock: sim, ProbeInterval: time.Hour, SessionTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)

	const g = "hall"
	who := []string{"holder", "q1", "q2", "q3", "bystander"}
	taps := map[string]*loggedTap{}
	members := map[string]*client.Client{}
	for _, name := range who {
		tap := &loggedTap{cseqs: map[string][]int64{}, slots: map[string]int{}}
		c, err := client.Dial(client.Config{
			Network: n.From(name + "host"), Addr: "srv:1", Name: name,
			Role: "participant", Priority: 2, Timeout: 2 * time.Second, OnEvent: tap.observe,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		taps[name], members[name] = tap, c
	}
	id := func(name string) string { return members[name].MemberID() }
	for slot, name := range who[:4] {
		dec, err := members[name].RequestFloor(g, floor.EqualControl, "")
		if err != nil || dec.Granted != (slot == 0) || dec.QueuePosition != slot {
			t.Fatalf("%s floor request: %+v %v, want slot %d", name, dec, err, slot)
		}
	}
	floorEvents := func() (events []protocol.FloorEventBody) {
		for _, e := range srv.logs.Get(g).Dump() {
			var body protocol.FloorEventBody
			msg, err := protocol.DecodeBinary(e.Wire)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Type != protocol.TFloorEvent {
				continue
			}
			if err := msg.Into(&body); err != nil {
				t.Fatal(err)
			}
			if body.QueuePosition != 0 {
				t.Errorf("retained %s event carries queue slot %d", body.Event, body.QueuePosition)
			}
			events = append(events, body)
		}
		return events
	}
	// The grant and three queueings are logged before the release.
	waitFor(t, "the set-up floor events to be logged", func() bool { return len(floorEvents()) == 4 })
	slotsSeen := func(event string, want map[string]int) {
		t.Helper()
		for name, slot := range want {
			tap := taps[name]
			waitFor(t, name+" to receive "+event, func() bool {
				tap.mu.Lock()
				defer tap.mu.Unlock()
				_, ok := tap.slots[event]
				return ok
			})
			tap.mu.Lock()
			got := tap.slots[event]
			tap.mu.Unlock()
			if got != slot {
				t.Errorf("%s's copy of %q carries slot %d, want %d", name, event, got, slot)
			}
		}
	}

	if err := members["holder"].ReleaseFloor(g); err != nil {
		t.Fatal(err)
	}
	slotsSeen("released/"+id("holder"), map[string]int{"holder": 0, "q1": 0, "q2": 1, "q3": 2, "bystander": 0})
	waitFor(t, "q3 to learn slot 2", func() bool { return members["q3"].QueuePosition(g) == 2 })
	if got := floorEvents(); len(got) != 5 || got[4].Event != "released" {
		t.Fatalf("log holds floor events %+v after the release, want the release last and no \"queue\" event", got)
	}

	// Everyone but q2 speaks a minute later; q2 is past the TTL.
	sim.Advance(time.Minute)
	for _, name := range []string{"holder", "q1", "q3", "bystander"} {
		if _, err := members[name].SyncClock(); err != nil {
			t.Fatal(err)
		}
	}
	head := srv.logs.Get(g).Head()
	if reaped := srv.Reap(sim.Now()); len(reaped) != 1 || reaped[0] != id("q2") {
		t.Fatalf("reaped %v, want only q2", reaped)
	}
	if got := srv.logs.Get(g).Head() - head; got != 1 {
		t.Fatalf("the reap logged %d events, want one", got)
	}
	if got := floorEvents(); got[len(got)-1].Event != "queue" || got[len(got)-1].Member != id("q2") || got[len(got)-1].QueueLen != 1 {
		t.Fatalf("the reap logged %+v, want a \"queue\" event naming q2 with one member left queued", got[len(got)-1])
	}
	slotsSeen("queue/"+id("q2"), map[string]int{"holder": 0, "q1": 0, "q3": 1, "bystander": 0})
	waitFor(t, "q3 to learn slot 1", func() bool { return members["q3"].QueuePosition(g) == 1 })
}

package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// helloNode is a fake node that counts the node_hello streams the router
// opens to it and welcomes each.
func helloNode(t *testing.T, network transport.Network, addr string, hellos *atomic.Int32) {
	t.Helper()
	l, err := network.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if _, err := conn.Recv(); err != nil { // the trunk preface
				return
			}
			var stats transport.MuxStats
			m := transport.AcceptMux(conn, &stats, func(st transport.Conn) {
				go func() {
					wire, err := st.Recv()
					if err != nil {
						return
					}
					if msg, err := protocol.Decode(wire); err == nil && msg.Type == protocol.TNodeHello {
						hellos.Add(1)
					}
					welcome := protocol.MustNew(protocol.TWelcome, protocol.WelcomeBody{})
					if wire, err := protocol.Encode(welcome); err == nil {
						_ = st.Send(wire)
					}
					for {
						if _, err := st.Recv(); err != nil {
							return
						}
					}
				}()
			})
			t.Cleanup(m.Close)
		}
	}()
}

// TestStaleSessionOpensNoUpstream: a router session routes only through
// upstreams it may still open. One that has been torn down — its loop
// can still be routing what its client sent before the end — and one
// that has lost its home upstream open nothing: a node_hello from either
// would displace the member's live session on that node, and at the home
// that is the session a resume has just opened. A live session still
// opens an owner upstream on first use.
func TestStaleSessionOpensNoUpstream(t *testing.T) {
	sim := netsim.New(73)
	addrs := []string{"stale-n0:1", "stale-n1:1"}
	var hellos [2]atomic.Int32
	for i, addr := range addrs {
		helloNode(t, sim, addr, &hellos[i])
	}
	r, err := NewRouter(RouterConfig{Network: sim, Addr: "stale-router:1", Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	l, err := sim.Listen("stale-client:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	client, err := sim.Dial("stale-client:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	var owned string
	for i := 0; owned == ""; i++ {
		if key := "stale-class" + string(rune('a'+i)); r.pmap.Primary(key) == 1 {
			owned = key
		}
	}
	backfill := func(group string) (protocol.Message, []byte) {
		msg := protocol.MustNew(protocol.TBackfill, protocol.BackfillBody{Group: group})
		wire, err := protocol.EncodeBinary(msg)
		if err != nil {
			t.Fatal(err)
		}
		msg, err = protocol.DecodeBinary(wire)
		if err != nil {
			t.Fatal(err)
		}
		return msg, wire
	}
	session := func(done bool) *routerSession {
		return &routerSession{
			r: r, client: client, ups: make(map[int]*upstream), homeIdx: 0, done: done,
			identity: protocol.NodeHelloBody{MemberID: "m#1", Name: "m", WireVersion: protocol.WireVersion},
		}
	}

	torn := session(true)
	torn.route(backfill(""))
	torn.route(backfill(owned))
	homeless := session(false)
	homeless.route(backfill(""))
	if got := hellos[0].Load() + hellos[1].Load(); got != 0 {
		t.Fatalf("stale sessions sent %d node_hellos (home %d, owner %d), want none", got, hellos[0].Load(), hellos[1].Load())
	}

	homeless.route(backfill(owned))
	deadline := time.Now().Add(5 * time.Second)
	for hellos[1].Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := hellos[1].Load(); got != 1 {
		t.Fatalf("a live session's first message to the owner sent %d node_hellos, want 1", got)
	}
	if got := hellos[0].Load(); got != 0 {
		t.Fatalf("the home got %d node_hellos, want none", got)
	}
}

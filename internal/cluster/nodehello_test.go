package cluster_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// refusingNode is a fake owner node: it accepts the router's trunk and
// answers every stream's node_hello with a typed refusal, then writes a
// chat event behind it on the same stream — a frame that must never
// reach the client.
func refusingNode(t *testing.T, network transport.Network, addr string) {
	t.Helper()
	fakeNode(t, network, addr, func(_ transport.Conn, st transport.Conn) {
		wire, err := st.Recv()
		if err != nil {
			return
		}
		hello, err := protocol.DecodeBinary(wire)
		if err != nil || hello.Type != protocol.TNodeHello {
			t.Errorf("stream's first message is %v (%v), want node_hello", hello.Type, err)
			return
		}
		refusal := protocol.MustNew(protocol.TErr, protocol.ErrBody{Code: protocol.CodeWireUnsupported, Detail: "refused"})
		refusal.Seq = hello.Seq
		if wire, err := protocol.EncodeBinary(refusal); err == nil {
			_ = st.Send(wire)
		}
		leak := protocol.MustNew(protocol.TChatEvent, protocol.ChatBody{Text: "from a refused stream"})
		if wire, err := protocol.EncodeBinary(leak); err == nil {
			_ = st.Send(wire)
		}
		_, _ = st.Recv() // the routed message behind the hello
	})
}

// rawSession dials the router and does the client handshake by hand, so
// a test decides exactly what the session routes. Every frame the router
// sends afterwards arrives on frames.
func rawSession(t *testing.T, network transport.Network, addr, name string) (transport.Conn, <-chan protocol.Message) {
	t.Helper()
	conn, err := network.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	hello, err := protocol.EncodeBinary(protocol.MustNew(protocol.THello, protocol.HelloBody{
		Name: name, Role: "participant", WireVersion: protocol.WireVersion,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(hello); err != nil {
		t.Fatal(err)
	}
	wire, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := protocol.DecodeBinary(wire); err != nil || msg.Type != protocol.TWelcome {
		t.Fatalf("handshake reply %v (%v), want welcome", msg.Type, err)
	}
	frames := make(chan protocol.Message, 64)
	go func() {
		for {
			wire, err := conn.Recv()
			if err != nil {
				return
			}
			if msg, err := protocol.DecodeBinary(wire); err == nil {
				frames <- msg
			}
		}
	}()
	return conn, frames
}

// routeRaw sends one binary client message on a raw session.
func routeRaw(t *testing.T, conn transport.Conn, msg protocol.Message) {
	t.Helper()
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedNodeHelloMovesTheGroup: a backfill opening an upstream
// rides behind its node_hello, and the relay checks the reply. An owner
// that refuses the hello must (1) send the client a node_moved naming
// the group, (2) count dmps_router_errors_total{site="node_hello"}, and
// (3) relay nothing from the refused stream.
func TestRefusedNodeHelloMovesTheGroup(t *testing.T) {
	sim := netsim.New(71)
	addrs := []string{"hello-n0:1", "hello-n1:1"}
	home, err := server.New(server.Config{
		Network: sim, Addr: addrs[0],
		Cluster: &server.ClusterConfig{Nodes: addrs, Self: 0, ReplicationFactor: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	home.Start()
	t.Cleanup(home.Close)
	refusingNode(t, sim, addrs[1])
	router, err := cluster.NewRouter(cluster.RouterConfig{Network: sim, Addr: "hello-router:1", Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)
	reg := metrics.NewRegistry()
	router.RegisterMetrics(reg)

	g := pickKeyFor(t, addrs, "hello-class", 1)
	conn, frames := rawSession(t, sim, router.Addr(), pickKeyFor(t, addrs, "hello-m", 0))
	routeRaw(t, conn, protocol.MustNew(protocol.TBackfill, protocol.BackfillBody{Group: g}))
	var leaked []protocol.Type
	deadline := time.After(10 * time.Second)
	for moved := false; !moved; {
		select {
		case msg := <-frames:
			var body protocol.NodeMovedBody
			switch {
			case msg.Type == protocol.TNodeMoved && msg.Into(&body) == nil && slices.Contains(body.Groups, g):
				moved = true
			case msg.Type == protocol.TChatEvent || msg.Type == protocol.TErr:
				leaked = append(leaked, msg.Type)
			}
		case <-deadline:
			t.Fatal("no node_moved naming the group after a refused node_hello")
		}
	}
	if got := series(t, reg, `dmps_router_errors_total{site="node_hello"}`); got == "0" {
		t.Errorf(`dmps_router_errors_total{site="node_hello"} = %s after a refusal`, got)
	}
	if len(leaked) > 0 {
		t.Errorf("frames of the refused stream reached the client: %v", leaked)
	}
}

// TestTrunkDeathUnderNodeHelloReroutes: only a backfill rides a
// node_hello the owner has not answered. Anything else waits for the
// welcome, so an owner whose trunk dies between the hello and the reply
// loses nothing: the router marks the owner down and sends the message
// to the successor — here the member's home, which records it. That
// holds whether the floor_request opens the upstream itself or follows
// a backfill that opened it without waiting.
func TestTrunkDeathUnderNodeHelloReroutes(t *testing.T) {
	for i, lead := range []string{"floor_request opens the upstream", "floor_request behind a backfill"} {
		t.Run(lead, func(t *testing.T) {
			sim := netsim.New(72 + int64(i))
			addrs := []string{"reroute-n0:1", "reroute-n1:1"}
			got := make(chan protocol.Message, 64)
			recordingHome(t, sim, addrs[0], got)
			dyingOwner(t, sim, addrs[1])
			router, err := cluster.NewRouter(cluster.RouterConfig{Network: sim, Addr: "reroute-router:1", Nodes: addrs})
			if err != nil {
				t.Fatal(err)
			}
			router.Start()
			t.Cleanup(router.Close)

			g := pickKeyFor(t, addrs, "reroute-class", 1)
			conn, _ := rawSession(t, sim, router.Addr(), pickKeyFor(t, addrs, "reroute-m", 0))
			if i == 1 {
				routeRaw(t, conn, protocol.MustNew(protocol.TBackfill, protocol.BackfillBody{Group: g}))
			}
			req := protocol.MustNew(protocol.TFloorRequest, protocol.FloorRequestBody{Mode: "equal_control"})
			req.Group = g
			routeRaw(t, conn, req)
			deadline := time.After(10 * time.Second)
			for {
				select {
				case msg := <-got:
					if msg.Type == protocol.TFloorRequest && msg.Group == g {
						return
					}
				case <-deadline:
					t.Fatal("the floor_request was lost with the owner's trunk, not re-routed to the successor")
				}
			}
		})
	}
}

// recordingHome is a fake home node: it welcomes every stream's hello
// and hands each later message it reads to got.
func recordingHome(t *testing.T, network transport.Network, addr string, got chan<- protocol.Message) {
	t.Helper()
	fakeNode(t, network, addr, func(_ transport.Conn, st transport.Conn) {
		wire, err := st.Recv()
		if err != nil {
			return
		}
		hello, err := protocol.DecodeBinary(wire)
		if err != nil {
			return
		}
		welcome := protocol.MustNew(protocol.TWelcome, protocol.WelcomeBody{
			MemberID: "m#1", Token: "token", WireVersion: protocol.WireVersion,
		})
		welcome.Seq = hello.Seq
		if wire, err := protocol.EncodeBinary(welcome); err == nil {
			_ = st.Send(wire)
		}
		for {
			wire, err := st.Recv()
			if err != nil {
				return
			}
			if msg, err := protocol.DecodeBinary(wire); err == nil {
				got <- msg
			}
		}
	})
}

// dyingOwner is a fake owner node that dies under the first node_hello
// it reads: it stops listening, so the router's probe fails, and drops
// its trunk before it answers.
func dyingOwner(t *testing.T, network transport.Network, addr string) {
	t.Helper()
	var l transport.Listener
	l = fakeNode(t, network, addr, func(trunk transport.Conn, st transport.Conn) {
		if _, err := st.Recv(); err != nil {
			return
		}
		_ = l.Close()
		_ = trunk.Close()
	})
}

// fakeNode listens on addr and accepts router trunks, running serve on
// a goroutine for each stream the router opens (with the trunk's own
// connection).
func fakeNode(t *testing.T, network transport.Network, addr string, serve func(trunk, st transport.Conn)) transport.Listener {
	t.Helper()
	l, err := network.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var muxes []*transport.Mux
	t.Cleanup(func() {
		_ = l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, m := range muxes {
			m.Close()
		}
	})
	var stats transport.MuxStats
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if first, err := conn.Recv(); err != nil || !transport.IsTrunkPreface(first) {
				_ = conn.Close()
				continue
			}
			m := transport.AcceptMux(conn, &stats, func(st transport.Conn) {
				go func() {
					defer st.Close()
					serve(conn, st)
				}()
			})
			mu.Lock()
			muxes = append(muxes, m)
			mu.Unlock()
		}
	}()
	return l
}

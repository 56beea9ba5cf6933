package cluster_test

import (
	"errors"
	"fmt"
	"testing"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// TestOldWireAskRefused: the one framing is binary version 2, and the
// handshake's wire_version is a stamp, not a request. A hello stamped 0
// (JSON) or 1 (binary without the trace extension) — straight to a
// server, to a cluster node, or through the router, over real TCP — is
// answered with a typed wire_unsupported error and a closed connection,
// before anything is admitted; a current client is served by the same
// processes afterwards.
func TestOldWireAskRefused(t *testing.T) {
	addrs := freePorts(t, 4)
	nodeAddrs, routerAddr, soloAddr := addrs[:2], addrs[2], addrs[3]
	var nodes []*server.Server
	for i := range nodeAddrs {
		srv, err := server.New(server.Config{
			Network: transport.TCP{}, Addr: nodeAddrs[i],
			Cluster: &server.ClusterConfig{Nodes: nodeAddrs, Self: i},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		nodes = append(nodes, srv)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Network: transport.TCP{}, Addr: routerAddr, Nodes: nodeAddrs})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(router.Close)
	solo, err := server.New(server.Config{Network: transport.TCP{}, Addr: soloAddr})
	if err != nil {
		t.Fatal(err)
	}
	solo.Start()
	t.Cleanup(solo.Close)

	name := pickKeyFor(t, nodeAddrs, "oldwire", 0) // homed on node 0, so the direct hello is not redirected
	for _, target := range []struct{ what, addr string }{
		{"standalone server", soloAddr}, {"cluster node", nodeAddrs[0]}, {"router", routerAddr},
	} {
		for _, version := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/v%d", target.what, version), func(t *testing.T) {
				conn, err := transport.TCP{}.Dial(target.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				hello := protocol.MustNew(protocol.THello, protocol.HelloBody{Name: name, Role: "participant", Priority: 2, WireVersion: version})
				hello.Seq = 1
				wire, err := protocol.Encode(hello)
				if err != nil {
					t.Fatal(err)
				}
				if err := conn.Send(wire); err != nil {
					t.Fatal(err)
				}
				reply, err := conn.Recv()
				if err != nil {
					t.Fatalf("no typed refusal: %v", err)
				}
				msg, err := protocol.Decode(reply) // the handshake, refusals included, is JSON
				if err != nil {
					t.Fatalf("refusal is not a JSON handshake message: %v", err)
				}
				var body protocol.ErrBody
				if msg.Type != protocol.TErr || msg.Seq != 1 || msg.Into(&body) != nil || body.Code != protocol.CodeWireUnsupported {
					t.Fatalf("reply = %s seq %d %+v, want err %s", msg.Type, msg.Seq, body, protocol.CodeWireUnsupported)
				}
				if _, err := conn.Recv(); !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("after the refusal: %v, want a closed connection", err)
				}
			})
		}
	}
	if n := len(solo.Registry().Members()) + len(nodes[0].Registry().Members()) + len(nodes[1].Registry().Members()); n != 0 {
		t.Fatalf("%d members admitted by refused hellos", n)
	}
	for _, addr := range []string{soloAddr, routerAddr} {
		c, err := client.Dial(client.Config{Network: transport.TCP{}, Addr: addr, Name: name, Role: "participant", Priority: 2})
		if err != nil {
			t.Fatalf("current client refused at %s: %v", addr, err)
		}
		if err := c.Join("after-refusals"); err != nil {
			t.Fatalf("join at %s: %v", addr, err)
		}
		c.Close()
	}
}

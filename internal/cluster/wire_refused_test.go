package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// TestOldWireAskRefused: the one framing is binary version 3, the hello
// included, and the handshake's wire_version is a stamp, not a request.
// The hello of every older client — straight to a server, to a cluster
// node, or through the router, over real TCP — is answered with a typed
// wire_unsupported error echoing its seq, then a closed connection,
// before anything is admitted: a JSON hello stamped 0 (no stamp at all),
// 1 or 2 gets the refusal in JSON, which those clients read, and a
// binary hello stamped 2 gets it as a binary frame. A current client is
// served by the same processes afterwards.
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
		for i, ask := range []string{"v0", "v1", "v2", "v2-binary"} {
			t.Run(fmt.Sprintf("%s/%s", target.what, ask), func(t *testing.T) {
				conn, err := transport.TCP{}.Dial(target.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				seq := int64(5 + i)
				var wire []byte
				switch ask {
				case "v0":
					wire = fmt.Appendf(nil, `{"type":"hello","seq":%d,"body":{"name":%q,"role":"participant","priority":2}}`, seq, name)
				case "v1", "v2":
					wire = fmt.Appendf(nil, `{"type":"hello","seq":%d,"body":{"name":%q,"role":"participant","priority":2,"wire_version":%s}}`, seq, name, ask[1:])
				default:
					hello := protocol.MustNew(protocol.THello, protocol.HelloBody{Name: name, Role: "participant", Priority: 2, WireVersion: 2})
					hello.Seq = seq
					if wire, err = protocol.EncodeBinary(hello); err != nil {
						t.Fatal(err)
					}
				}
				if err := conn.Send(wire); err != nil {
					t.Fatal(err)
				}
				reply, err := conn.Recv()
				if err != nil {
					t.Fatalf("no typed refusal: %v", err)
				}
				var got struct {
					Type protocol.Type
					Seq  int64
					Body protocol.ErrBody
				}
				if ask == "v2-binary" {
					msg, err := protocol.DecodeBinary(reply)
					if err != nil || msg.Into(&got.Body) != nil {
						t.Fatalf("refusal of a binary hello is no binary err: %q (%v)", reply, err)
					}
					got.Type, got.Seq = msg.Type, msg.Seq
				} else if err := json.Unmarshal(reply, &got); err != nil {
					t.Fatalf("refusal of a JSON hello is no JSON message: %q (%v)", reply, err)
				}
				if got.Type != protocol.TErr || got.Seq != seq || got.Body.Code != protocol.CodeWireUnsupported {
					t.Fatalf("reply = %s seq %d %+v, want err %s seq %d", got.Type, got.Seq, got.Body, protocol.CodeWireUnsupported, seq)
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

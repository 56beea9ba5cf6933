// Benchmarks regenerating every figure and experiment of DESIGN.md §4.
// Each BenchmarkF*/BenchmarkE* wraps the corresponding runner in
// internal/experiments (the same code cmd/dmps-bench prints tables from)
// and reports its headline metric via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation.
// Micro-benchmarks for the load-bearing substrates follow.
package dmps_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmps"
	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/cluster"
	"dmps/internal/core"
	"dmps/internal/experiments"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/ocpn"
	"dmps/internal/petri"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
	"dmps/internal/whiteboard"
)

// reportDuration attaches a duration metric in milliseconds.
func reportDuration(b *testing.B, name string, d time.Duration) {
	b.Helper()
	b.ReportMetric(float64(d.Microseconds())/1000.0, name+"_ms")
}

func BenchmarkFigure1PresentationNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunF1()
		if err != nil {
			b.Fatal(err)
		}
		_ = tab.String()
	}
}

func BenchmarkFigure2CapabilityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunF2()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 8 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

func BenchmarkFigure3StatusLights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunF3()
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
	}
}

func BenchmarkE1ArbitrationModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1([]int{2, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2ClockDiscipline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunE2()
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
	}
}

func BenchmarkE3SkewVsBaseline(b *testing.B) {
	var lastDocpn time.Duration
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunE3()
		if err != nil {
			b.Fatal(err)
		}
		if d, err := time.ParseDuration(tab.Rows[len(tab.Rows)-1][1]); err == nil {
			lastDocpn = d
		}
	}
	reportDuration(b, "docpn_skew_at_100ms_spread", lastDocpn)
}

func BenchmarkE4PriorityInteraction(b *testing.B) {
	var prio time.Duration
	for i := 0; i < b.N; i++ {
		tab, err := experiments.RunE4()
		if err != nil {
			b.Fatal(err)
		}
		if d, err := time.ParseDuration(tab.Rows[0][1]); err == nil {
			prio = d
		}
	}
	reportDuration(b, "priority_skip_latency", prio)
}

func BenchmarkE5ResourceDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6TokenFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE6([]int{4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7SubgroupsDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE7(2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8ServerScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE8([]int{2, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9MediaStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE9([]int{2, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE11([]int{2, 8}, []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12ClusterScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE12([]int{1, 2}, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkArbitrate measures the FCM-Arbitrate hot path for every
// registered policy — the four paper modes plus ModeratedQueue — so
// future PRs can track per-policy arbitration cost. Each iteration is
// one request (plus the release/teardown that keeps the floor free for
// the next grant in the exclusive modes).
func BenchmarkArbitrate(b *testing.B) {
	newClass := func(b *testing.B) (*group.Registry, *floor.Controller) {
		b.Helper()
		reg := group.NewRegistry()
		for _, m := range []group.Member{
			{ID: "teacher", Role: group.Chair, Priority: 5},
			{ID: "alice", Role: group.Participant, Priority: 2},
			{ID: "bob", Role: group.Participant, Priority: 2},
		} {
			if err := reg.Register(m); err != nil {
				b.Fatal(err)
			}
		}
		if err := reg.CreateGroup("class", "teacher"); err != nil {
			b.Fatal(err)
		}
		for _, id := range []group.MemberID{"alice", "bob"} {
			if err := reg.Join("class", id); err != nil {
				b.Fatal(err)
			}
		}
		return reg, floor.NewController(reg, nil)
	}

	b.Run("free-access", func(b *testing.B) {
		_, ctl := newClass(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.Arbitrate("class", "alice", floor.FreeAccess, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("equal-control", func(b *testing.B) {
		_, ctl := newClass(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.Arbitrate("class", "alice", floor.EqualControl, ""); err != nil {
				b.Fatal(err)
			}
			if _, err := ctl.Release("class", "alice"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("equal-control-queued", func(b *testing.B) {
		_, ctl := newClass(b)
		if _, err := ctl.Arbitrate("class", "alice", floor.EqualControl, ""); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Busy answers exercise the queue path.
			_, _ = ctl.Arbitrate("class", "bob", floor.EqualControl, "")
		}
	})
	b.Run("group-discussion", func(b *testing.B) {
		_, ctl := newClass(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.Arbitrate("class", "alice", floor.GroupDiscussion, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-contact", func(b *testing.B) {
		_, ctl := newClass(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.Arbitrate("class", "alice", floor.DirectContact, "bob"); err != nil {
				b.Fatal(err)
			}
			ctl.EndContact("class", "alice")
		}
	})
	b.Run("moderated-queue", func(b *testing.B) {
		_, ctl := newClass(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.Arbitrate("class", "alice", floor.ModeratedQueue, ""); !errors.Is(err, floor.ErrBusy) {
				b.Fatalf("want queued, got %v", err)
			}
			if _, err := ctl.Approve("class", "teacher", "alice"); err != nil {
				b.Fatal(err)
			}
			if _, err := ctl.Release("class", "alice"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBroadcast measures group fan-out over netsim: one server-
// originated message delivered to every member of an N-member group. The
// encodes/op metric proves the encode-once invariant (exactly one
// protocol.EncodeBinary per broadcast regardless of group size), and allocs/op
// must stay flat in N modulo the per-recipient delivery itself.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("members-%d", n), func(b *testing.B) {
			lab, err := core.NewLab(core.Options{Seed: int64(n), ProbeInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer lab.Close()
			clients := make([]*client.Client, 0, n)
			for i := 0; i < n; i++ {
				c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Join("class"); err != nil {
					b.Fatal(err)
				}
				clients = append(clients, c)
			}
			// Converge in windows so bounded per-session queues never
			// overflow, whatever b.N is.
			const window = 128
			converged := func(upTo int64) {
				deadline := time.Now().Add(30 * time.Second)
				for _, c := range clients {
					for c.Board("class").Seq() < upTo {
						if time.Now().After(deadline) {
							b.Fatalf("fan-out stalled at %d/%d", c.Board("class").Seq(), upTo)
						}
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
			b.ReportAllocs()
			encBefore := protocol.EncodeCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
					Seq: int64(i + 1), Author: "bench", Kind: "text", Data: "fanout",
				})
				ev.Group = "class"
				lab.Server.Broadcast("class", ev)
				if (i+1)%window == 0 {
					converged(int64(i + 1))
				}
			}
			converged(int64(b.N))
			b.StopTimer()
			encoded := protocol.EncodeCount() - encBefore
			b.ReportMetric(float64(encoded)/float64(b.N), "encodes/op")
		})
	}
}

// BenchmarkArbitrateContention measures FCM-Arbitrate throughput when G
// independent groups arbitrate concurrently. Each parallel worker is
// pinned to one group; with per-group state sharding, ns/op should stay
// near-flat as G grows (groups never contend), whereas a single
// controller-wide mutex serializes all of them.
func BenchmarkArbitrateContention(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("groups-%d", g), func(b *testing.B) {
			reg := group.NewRegistry()
			for i := 0; i < g; i++ {
				id := group.MemberID(fmt.Sprintf("m%d", i))
				if err := reg.Register(group.Member{ID: id, Name: string(id), Role: group.Chair, Priority: 5}); err != nil {
					b.Fatal(err)
				}
				if err := reg.CreateGroup(fmt.Sprintf("g%d", i), id); err != nil {
					b.Fatal(err)
				}
			}
			ctl := floor.NewController(reg, nil)
			var next, failures atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				gi := int(next.Add(1)-1) % g
				gid := fmt.Sprintf("g%d", gi)
				mid := group.MemberID(fmt.Sprintf("m%d", gi))
				for pb.Next() {
					if _, err := ctl.Arbitrate(gid, mid, floor.FreeAccess, ""); err != nil {
						failures.Add(1)
						return
					}
				}
			})
			if failures.Load() > 0 {
				b.Fatalf("%d arbitrations failed", failures.Load())
			}
		})
	}
}

// BenchmarkQueueChurn measures queue-shifting floor churn over the live
// stack: four members rotate an Equal Control floor (the holder
// releases, promoting the queue front, then re-queues at the back), so
// every iteration shifts every queued member's slot. Each queued
// member's new slot rides its personal copy of the transition's own
// floor event — one extra encode per queued recipient — so B/op and
// allocs/op are what the CI trend gate holds this to.
func BenchmarkQueueChurn(b *testing.B) { benchQueueChurn(b, 4) }

// BenchmarkDeepQueueChurn is BenchmarkQueueChurn with sixteen members
// queued behind the holder: the per-queued-recipient encode cost at a
// queue four times deeper. It is reported, not gated.
func BenchmarkDeepQueueChurn(b *testing.B) { benchQueueChurn(b, 17) }

func benchQueueChurn(b *testing.B, members int) {
	lab, err := core.NewLab(core.Options{Seed: 7, ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	clients := make([]*client.Client, 0, members)
	for i := 0; i < members; i++ {
		c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Join("class"); err != nil {
			b.Fatal(err)
		}
		clients = append(clients, c)
	}
	// m0 takes the floor; the rest queue behind it.
	if dec, err := clients[0].RequestFloor("class", floor.EqualControl, ""); err != nil || !dec.Granted {
		b.Fatalf("seed grant: %+v %v", dec, err)
	}
	for i := 1; i < members; i++ {
		if dec, err := clients[i].RequestFloor("class", floor.EqualControl, ""); err != nil || dec.QueuePosition != i {
			b.Fatalf("seed queue %d: %+v %v", i, dec, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		holder := clients[i%members]
		if err := holder.ReleaseFloor("class"); err != nil {
			b.Fatalf("iter %d release: %v", i, err)
		}
		if _, err := holder.RequestFloor("class", floor.EqualControl, ""); err != nil {
			b.Fatalf("iter %d re-queue: %v", i, err)
		}
	}
}

// BenchmarkBoardStorm measures an annotation storm over the live stack:
// one author streams whiteboard operations as fast as the
// request/response loop allows while a second replica follows. The
// headline metric is logged_board_events/op — coalesced logged events
// per board operation. With per-slot pacing (ops inside the group's
// 3.125 ms pacing slot ride one logged event, flushed when the slot ends
// or at the batch bound) the ratio sits far below 1.0; a regression to
// per-stroke logging multiplies ring slots and fan-outs by the storm
// rate, and CI gates on it via cmd/dmps-benchjson.
func BenchmarkBoardStorm(b *testing.B) {
	benchmarkBoardStorm(b, 1)
}

// BenchmarkBoardStormTwoAuthors is the same storm written by two
// annotators taking turns, one blocking Annotate each: the Free Access
// and Group Discussion case. Any authors' operations share a batch, so
// its logged_board_events/op matches the single author's and stays
// under the same CI gate; a batch that closed on every change of author
// would log about one event per operation.
func BenchmarkBoardStormTwoAuthors(b *testing.B) {
	benchmarkBoardStorm(b, 2)
}

// benchmarkBoardStorm storms one group with authors annotators taking
// turns, while a viewer follows, and reports logged_board_events/op.
func benchmarkBoardStorm(b *testing.B, authors int) {
	lab, err := core.NewLab(core.Options{Seed: 3, ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	var artists []*client.Client
	for _, name := range []string{"artist", "painter"}[:authors] {
		artist, err := lab.NewClient(name, "participant", 2)
		if err != nil {
			b.Fatal(err)
		}
		artists = append(artists, artist)
	}
	viewer, err := lab.NewClient("viewer", "participant", 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range append(artists, viewer) {
		if err := c.Join("studio"); err != nil {
			b.Fatal(err)
		}
	}
	ops0, logged0 := lab.Server.BoardStormStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := artists[i%authors].Annotate("studio", "draw", "stroke"); err != nil {
			b.Fatalf("iter %d: %v", i, err)
		}
	}
	b.StopTimer()
	lab.Server.FlushBoardBatches()
	deadline := time.Now().Add(30 * time.Second)
	for viewer.Board("studio").Seq() < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("storm stalled at %d/%d", viewer.Board("studio").Seq(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	ops, logged := lab.Server.BoardStormStats()
	if ops-ops0 > 0 {
		b.ReportMetric(float64(logged-logged0)/float64(ops-ops0), "logged_board_events/op")
	}
}

// BenchmarkBoardStormTCP is the storm on real sockets: a standalone
// server on loopback TCP, two annotators taking turns (one blocking
// Annotate each) and sixteen listeners following. inline_writes/delivery
// is the share of the frames delivered to sessions that the sending
// goroutine wrote straight to an idle socket (dmps_wire_inline_total
// over the frames dmps_wire_flushes_total carried) — the rest waited
// for a session's writer because the socket pushed back or a frame was
// still queued ahead. Recorded, not gated.
func BenchmarkBoardStormTCP(b *testing.B) {
	const annotators, listeners = 2, 16
	srv, err := server.New(server.Config{Network: transport.TCP{}, Addr: "127.0.0.1:0", ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	reg := metrics.NewRegistry()
	srv.RegisterMetrics(reg)
	dial := func(name string) *client.Client {
		c, err := client.Dial(client.Config{Network: transport.TCP{}, Addr: srv.Addr(), Name: name, Role: "participant", Priority: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Join("studio"); err != nil {
			b.Fatal(err)
		}
		return c
	}
	var artists, viewers []*client.Client
	for i := 0; i < annotators; i++ {
		artists = append(artists, dial(fmt.Sprintf("artist%d", i)))
	}
	for i := 0; i < listeners; i++ {
		viewers = append(viewers, dial(fmt.Sprintf("viewer%d", i)))
	}
	defer func() {
		for _, c := range append(artists, viewers...) {
			c.Close()
		}
	}()
	delivered := func() (inline, frames float64) {
		flushes := seriesValue(b, reg, "dmps_wire_flushes_total")
		return seriesValue(b, reg, "dmps_wire_inline_total"), flushes * seriesValue(b, reg, "dmps_wire_msgs_per_flush")
	}
	inline0, frames0 := delivered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := artists[i%annotators].Annotate("studio", "draw", "stroke"); err != nil {
			b.Fatalf("iter %d: %v", i, err)
		}
	}
	srv.FlushBoardBatches()
	deadline := time.Now().Add(30 * time.Second)
	for _, v := range viewers {
		for v.Board("studio").Seq() < int64(b.N) {
			if time.Now().After(deadline) {
				b.Fatalf("storm stalled at %d/%d", v.Board("studio").Seq(), b.N)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	inline, frames := delivered()
	if frames > frames0 {
		b.ReportMetric((inline-inline0)/(frames-frames0), "inline_writes/delivery")
	}
}

// BenchmarkClusterBroadcast measures the hot broadcast path of one
// cluster node: a group owned by node 1 of a 1-router + 2-node netsim
// cluster, every member connected through the router. The encodes/op
// metric proves the encode-once invariant survives the cluster plane —
// the node encodes each logged event exactly once for its whole
// fan-out, and successor replication reuses those bytes verbatim (its
// envelope wrap is plain marshalling of a per-append forward, not
// per-recipient work). repl_bytes/op is what node 1 queued to its one
// replica peer per event: the forward carrying the event's journal
// record (dmps_cluster_forward_bytes_total).
func BenchmarkClusterBroadcast(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("members-%d", n), func(b *testing.B) {
			cl, err := core.StartCluster(core.ClusterOptions{
				Options: core.Options{Seed: int64(n), ProbeInterval: time.Hour},
				Nodes:   2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			// A group owned by node 1, found under the lab addresses.
			gid := ""
			addrs := []string{core.NodeAddr(0), core.NodeAddr(1)}
			pmap := cluster.NewMap(addrs)
			for i := 0; gid == ""; i++ {
				if key := fmt.Sprintf("cbench%d", i); pmap.Primary(key) == 1 {
					gid = key
				}
			}
			clients := make([]*client.Client, 0, n)
			for i := 0; i < n; i++ {
				c, err := cl.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Join(gid); err != nil {
					b.Fatal(err)
				}
				clients = append(clients, c)
			}
			const window = 128
			converged := func(upTo int64) {
				deadline := time.Now().Add(30 * time.Second)
				for _, c := range clients {
					for c.Board(gid).Seq() < upTo {
						if time.Now().After(deadline) {
							b.Fatalf("routed fan-out stalled at %d/%d", c.Board(gid).Seq(), upTo)
						}
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
			reg := metrics.NewRegistry()
			cl.Nodes[1].RegisterMetrics(reg)
			replBytes := `dmps_cluster_forward_bytes_total{peer="` + core.NodeAddr(0) + `"}`
			b.ReportAllocs()
			encBefore, bytesBefore := protocol.EncodeCount(), seriesValue(b, reg, replBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
					Seq: int64(i + 1), Author: "bench", Kind: "text", Data: "fanout",
				})
				ev.Group = gid
				cl.Nodes[1].Broadcast(gid, ev)
				if (i+1)%window == 0 {
					converged(int64(i + 1))
				}
			}
			converged(int64(b.N))
			b.StopTimer()
			encoded := protocol.EncodeCount() - encBefore
			b.ReportMetric(float64(encoded)/float64(b.N), "encodes/op")
			b.ReportMetric((seriesValue(b, reg, replBytes)-bytesBefore)/float64(b.N), "repl_bytes/op")
		})
	}
}

// BenchmarkTCPFrame measures the transport layer alone: one 128-byte
// frame sent and received over a loopback TCP connection — the cost
// every leg of a routed operation pays per message.
func BenchmarkTCPFrame(b *testing.B) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	out, err := transport.TCP{}.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer out.Close()
	in, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	frame := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.Send(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := in.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterFanout measures the routed fan-out on real sockets:
// one logged event from its owning node, through the router, to sixteen
// members each on a loopback TCP session — the relay leg of a floor
// hand-off, which BenchmarkClusterBroadcast's in-memory network prices
// at zero syscalls. From the owning node's registry, trunk_frames/flush
// is the frames per trunk write to the router (dmps_trunk_frames_per_flush
// over the run) and inline_writes/delivery the share of its session
// frames handed to the trunk by the fan-out itself rather than by a
// session's writer, as BenchmarkBoardStormTCP's. Recorded, not gated.
func BenchmarkRouterFanout(b *testing.B) {
	const members = 16
	b.Run(fmt.Sprintf("members-%d", members), func(b *testing.B) {
		// Nodes must know each other's addresses before either listens.
		addrs := make([]string, 2)
		for i := range addrs {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			addrs[i] = l.Addr().String()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		}
		nodes := make([]*server.Server, len(addrs))
		for i := range nodes {
			srv, err := server.New(server.Config{
				Network: transport.TCP{}, Addr: addrs[i], ProbeInterval: time.Hour,
				Cluster: &server.ClusterConfig{Nodes: addrs, Self: i},
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			defer srv.Close()
			nodes[i] = srv
		}
		router, err := cluster.NewRouter(cluster.RouterConfig{Network: transport.TCP{}, Addr: "127.0.0.1:0", Nodes: addrs})
		if err != nil {
			b.Fatal(err)
		}
		router.Start()
		defer router.Close()
		pmap := cluster.NewMap(addrs)
		gid := ""
		for i := 0; gid == ""; i++ {
			if key := fmt.Sprintf("rbench%d", i); pmap.Primary(key) == 1 {
				gid = key
			}
		}
		clients := make([]*client.Client, 0, members)
		for i := 0; i < members; i++ {
			c, err := client.Dial(client.Config{
				Network: transport.TCP{}, Addr: router.Addr(),
				Name: fmt.Sprintf("m%d", i), Role: "participant", Priority: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Join(gid); err != nil {
				b.Fatal(err)
			}
			clients = append(clients, c)
		}
		reg := metrics.NewRegistry()
		nodes[1].RegisterMetrics(reg)
		counts := func() (trunkFlushes, trunkFrames, inline, delivered float64) {
			trunkFlushes = seriesValue(b, reg, "dmps_trunk_flushes_total")
			flushes := seriesValue(b, reg, "dmps_wire_flushes_total")
			return trunkFlushes, trunkFlushes * seriesValue(b, reg, "dmps_trunk_frames_per_flush"),
				seriesValue(b, reg, "dmps_wire_inline_total"), flushes * seriesValue(b, reg, "dmps_wire_msgs_per_flush")
		}
		const window = 128
		converged := func(upTo int64) {
			deadline := time.Now().Add(30 * time.Second)
			for _, c := range clients {
				for c.Board(gid).Seq() < upTo {
					if time.Now().After(deadline) {
						b.Fatalf("routed TCP fan-out stalled at %d/%d", c.Board(gid).Seq(), upTo)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
		trunkFlushes0, trunkFrames0, inline0, delivered0 := counts()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
				Seq: int64(i + 1), Author: "bench", Kind: "text", Data: "fanout",
			})
			ev.Group = gid
			nodes[1].Broadcast(gid, ev)
			if (i+1)%window == 0 {
				converged(int64(i + 1))
			}
		}
		converged(int64(b.N))
		b.StopTimer()
		trunkFlushes, trunkFrames, inline, delivered := counts()
		if trunkFlushes > trunkFlushes0 {
			b.ReportMetric((trunkFrames-trunkFrames0)/(trunkFlushes-trunkFlushes0), "trunk_frames/flush")
		}
		if delivered > delivered0 {
			b.ReportMetric((inline-inline0)/(delivered-delivered0), "inline_writes/delivery")
		}
	})
}

// BenchmarkJoinStorm measures a class assembling: N members dial a fresh
// standalone server on netsim (default probe interval) and join one
// group, one after another. lights_pushes/join counts the connection-
// lights pushes queued while the storm ran, per join. The probe tick is
// their only trigger, so a storm shorter than a tick causes none; a push
// to every member on each join would make it (N+1)/2.
func BenchmarkJoinStorm(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("members-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var pushes float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				network := netsim.New(int64(i))
				srv, err := server.New(server.Config{Network: network, Addr: "storm:1"})
				if err != nil {
					b.Fatal(err)
				}
				srv.Start()
				reg := metrics.NewRegistry()
				srv.RegisterMetrics(reg)
				before := seriesValue(b, reg, "dmps_lights_pushes_total")
				clients := make([]*client.Client, 0, n)
				b.StartTimer()
				for j := 0; j < n; j++ {
					c, err := client.Dial(client.Config{
						Network: network, Addr: "storm:1",
						Name: fmt.Sprintf("m%d", j), Role: "participant", Priority: 2,
					})
					if err != nil {
						b.Fatal(err)
					}
					clients = append(clients, c)
					if err := c.Join("class"); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				pushes += seriesValue(b, reg, "dmps_lights_pushes_total") - before
				for _, c := range clients {
					c.Close()
				}
				srv.Close()
				b.StartTimer()
			}
			joins := float64(b.N * n)
			b.ReportMetric(pushes/joins, "lights_pushes/join")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/joins, "ns/join")
		})
	}
}

// BenchmarkResume prices one session resume through the routing tier:
// a router and two nodes on netsim, the member homed on node 0 and its
// group owned by node 1, so the resume re-opens an upstream to each.
// While the member is away a poster writes one board line; the op is
// Drop → Reconnect → the member's board holds that line again.
// trunk_writes/resume is the router↔node trunk writes the op cost, the
// router's and both nodes' dmps_trunk_flushes_total deltas summed.
func BenchmarkResume(b *testing.B) {
	network := netsim.New(29)
	addrs := []string{"resume-n0:1", "resume-n1:1"}
	regs := make([]*metrics.Registry, 0, len(addrs)+1)
	for i := range addrs {
		srv, err := server.New(server.Config{
			Network: network, Addr: addrs[i], ProbeInterval: time.Hour,
			Cluster: &server.ClusterConfig{Nodes: addrs, Self: i, ReplicationFactor: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		defer srv.Close()
		reg := metrics.NewRegistry()
		srv.RegisterMetrics(reg)
		regs = append(regs, reg)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Network: network, Addr: "resume-router:1", Nodes: addrs})
	if err != nil {
		b.Fatal(err)
	}
	router.Start()
	defer router.Close()
	reg := metrics.NewRegistry()
	router.RegisterMetrics(reg)
	regs = append(regs, reg)
	pmap := cluster.NewMap(addrs)
	pick := func(prefix string, owner int) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("%s%d", prefix, i); pmap.Primary(key) == owner {
				return key
			}
		}
	}
	gid := pick("resume-class", 1)
	dial := func(name string, onEvent func(protocol.Message)) *client.Client {
		c, err := client.Dial(client.Config{
			Network: network, Addr: router.Addr(),
			Name: name, Role: "participant", Priority: 2, OnEvent: onEvent,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Join(gid); err != nil {
			b.Fatal(err)
		}
		return c
	}
	wake := make(chan struct{}, 1)
	member := dial(pick("resumer", 0), func(protocol.Message) {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	defer member.Close()
	poster := dial("poster", nil)
	defer poster.Close()
	settle := func(c *client.Client, seq int64) {
		deadline := time.After(10 * time.Second)
		for c.Board(gid).Seq() < seq {
			select {
			case <-wake:
			case <-time.After(time.Millisecond):
			case <-deadline:
				b.Fatalf("board stalled at %d, want %d", c.Board(gid).Seq(), seq)
			}
		}
	}
	flushes := func() float64 {
		var sum float64
		for _, reg := range regs {
			sum += seriesValue(b, reg, "dmps_trunk_flushes_total")
		}
		return sum
	}
	var writes float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		member.Drop()
		if err := poster.Chat(gid, "while you were away"); err != nil {
			b.Fatal(err)
		}
		settle(poster, int64(i+1))
		before := flushes()
		b.StartTimer()
		if err := member.Reconnect(); err != nil {
			b.Fatal(err)
		}
		settle(member, int64(i+1))
		b.StopTimer()
		writes += flushes() - before
		b.StartTimer()
	}
	b.ReportMetric(writes/float64(b.N), "trunk_writes/resume")
}

// BenchmarkWALAppend prices journaling a floor event: one member of a
// standalone server on netsim alternately takes and releases an Equal
// Control floor, so every op publishes one floor event — logged, with
// its floor snapshot — through the server's journal hook. wal-on journals
// to a temporary directory, wal-off runs the same ops with no journal;
// the difference is the journal's cost per event. journal_B/event is
// the segment bytes written per event.
func BenchmarkWALAppend(b *testing.B) {
	for _, journal := range []bool{false, true} {
		name := "wal-off"
		if journal {
			name = "wal-on"
		}
		b.Run(name, func(b *testing.B) {
			network := netsim.New(9)
			cfg := server.Config{Network: network, Addr: "wal:1", ProbeInterval: time.Hour}
			if journal {
				cfg.WALDir = b.TempDir()
			}
			srv, err := server.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			defer srv.Close()
			c, err := client.Dial(client.Config{Network: network, Addr: "wal:1", Name: "speaker", Role: "participant", Priority: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Join("class"); err != nil {
				b.Fatal(err)
			}
			bytes0 := srv.WALStats().Bytes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					_, err = c.RequestFloor("class", floor.EqualControl, "")
				} else {
					err = c.ReleaseFloor("class")
				}
				if err != nil {
					b.Fatalf("op %d: %v", i, err)
				}
			}
			b.StopTimer()
			if journal {
				srv.Close() // the last event is appended after its ack
				b.ReportMetric(float64(srv.WALStats().Bytes-bytes0)/float64(b.N), "journal_B/event")
			}
		})
	}
}

// seriesValue reads an unlabelled series off a registry's exposition.
func seriesValue(b *testing.B, reg *metrics.Registry, name string) float64 {
	b.Helper()
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		b.Fatal(err)
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				b.Fatal(err)
			}
			return f
		}
	}
	b.Fatalf("no series %s", name)
	return 0
}

func BenchmarkPetriFireChain(b *testing.B) {
	n := petri.New()
	_ = n.AddPlace("a", "")
	_ = n.AddPlace("z", "")
	_ = n.AddTransition("t", "")
	_ = n.AddInput("a", "t", 1)
	_ = n.AddOutput("t", "z", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := petri.NewMarking("a")
		if _, err := n.Fire(m, "t"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPetriReachabilityLecture(b *testing.B) {
	tl, err := experiments.LectureTimeline()
	if err != nil {
		b.Fatal(err)
	}
	net, err := ocpn.Compile(tl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Base.Reachability(net.InitialMarking(), 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOCPNCompile(b *testing.B) {
	tl, err := experiments.LectureTimeline()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocpn.Compile(tl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllenSolve(b *testing.B) {
	spec := dmps.Spec{
		Objects: []dmps.MediaObject{
			{ID: "slide", Kind: dmps.Image, Duration: 10 * time.Second},
			{ID: "narration", Kind: dmps.Audio, Duration: 10 * time.Second, Rate: 50},
			{ID: "clip", Kind: dmps.Video, Duration: 5 * time.Second, Rate: 30},
		},
		Constraints: []dmps.Constraint{
			{A: "slide", B: "narration", Rel: dmps.Equals},
			{A: "slide", B: "clip", Rel: dmps.Meets},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dmps.Solve(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhiteboardAppend(b *testing.B) {
	board := whiteboard.NewBoard()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := board.Append("author", whiteboard.Text, "message"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolEncodeDecode(b *testing.B) {
	msg := protocol.MustNew(protocol.TChat, protocol.ChatBody{Text: "benchmark message"})
	msg.Group = "class"
	msg.Seq = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := protocol.EncodeBinary(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := protocol.DecodeBinary(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClockEstimator(b *testing.B) {
	base := clock.NewSim(time.Date(2001, 4, 16, 9, 0, 0, 0, time.UTC))
	master := clock.NewMaster(base)
	est := clock.NewEstimator(clock.NewDrift(base, -time.Second, 50e-6), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.SyncDirect(master)
		if _, err := est.GlobalNow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedSimulation(b *testing.B) {
	tl, err := experiments.LectureTimeline()
	if err != nil {
		b.Fatal(err)
	}
	sites := []dmps.SimSite{
		{Name: "a", ControlDelay: time.Millisecond, SyncErr: time.Millisecond},
		{Name: "b", ControlDelay: 40 * time.Millisecond, SyncErr: 2 * time.Millisecond, Drift: 80e-6},
		{Name: "c", ControlDelay: 90 * time.Millisecond, SyncErr: -time.Millisecond, Drift: -60e-6},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dmps.Simulate(dmps.SimConfig{Timeline: tl, Sites: sites, Mode: dmps.GlobalClock})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatal("unfinished")
		}
	}
}

func BenchmarkLivePresentationPlayout(b *testing.B) {
	tl := dmps.Timeline{Items: []dmps.ScheduledObject{
		{Object: dmps.MediaObject{ID: "s", Kind: dmps.Image, Duration: time.Millisecond}, Start: 0},
		{Object: dmps.MediaObject{ID: "v", Kind: dmps.Video, Duration: time.Millisecond, Rate: 30}, Start: time.Millisecond},
	}}
	master := clock.NewMaster(clock.Real{})
	est := clock.NewEstimator(clock.Real{}, 4)
	est.SyncDirect(master)
	player := dmps.PresentationPlayer{Site: "bench", Estimator: est}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := master.GlobalNow()
		if _, err := player.Play(context.Background(), tl, start); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConflictResolution compares the paper's priority-arc
// conflict rule against plain deterministic choice on a contended place.
func BenchmarkAblationConflictResolution(b *testing.B) {
	n := petri.New()
	_ = n.AddPlace("shared", "")
	for i := 0; i < 8; i++ {
		tid := petri.TransitionID(fmt.Sprintf("t%d", i))
		_ = n.AddTransition(tid, "")
		out := petri.PlaceID(fmt.Sprintf("o%d", i))
		_ = n.AddPlace(out, "")
		if i == 3 {
			_ = n.AddPriorityInput("shared", tid, 1)
		} else {
			_ = n.AddInput("shared", tid, 1)
		}
		_ = n.AddOutput(tid, out, 1)
	}
	m := petri.NewMarking("shared")
	enabled := n.EnabledSet(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := n.ResolveConflict(m, enabled); got != "t3" {
			b.Fatalf("conflict resolution picked %s", got)
		}
	}
}

package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/transport"
	"dmps/internal/whiteboard"
)

// probeTarget is what a scenario hands the layer probes: where its
// traffic went and what it looked like.
type probeTarget struct {
	node     int              // index of the group's owner in the deployment
	group    string           // the group the witness followed
	sessions []*client.Client // the sessions its fan-out reaches
	capture  *capture         // logged events a witness received
	request  protocol.Message // a request as the workload's clients sent it
}

// probeRounds is how many times each layer probe replays the captured
// frames; a probe's figure is the median round.
const probeRounds = 15

// prober times calls into each layer's public functions while
// replaying the frames a workload put on the wire. Everything is
// measured from outside the layer: a clock read before and after a
// batch of calls, and the allocation counter read around it.
type prober struct {
	rec    *spanRecorder
	root   int
	msgs   []protocol.Message // captured events and the request, decoded
	wires  [][]byte           // the same, binary-framed
	events int                // how many of msgs are logged events (they lead)
	out    map[string]float64
}

// batch runs fn — calls calls into one layer — probeRounds times and
// returns the median time and allocations per call. Each round is one
// span under the replay's root.
func (p *prober) batch(name string, calls int, fn func()) (ns, allocs float64) {
	var ms runtime.MemStats
	times := make([]float64, 0, probeRounds)
	allocd := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		fn()
		t1 := time.Now()
		runtime.ReadMemStats(&ms)
		times = append(times, float64(t1.Sub(t0))/float64(calls))
		allocd = append(allocd, float64(ms.Mallocs-before)/float64(calls))
		p.rec.addBatch(p.root, name, t0, t1, calls, allocd[r])
	}
	return quantileOf(times, 0.5), quantileOf(allocd, 0.5)
}

// runProbes measures every layer row of the README's table against the
// frames this workload produced and returns the per-layer metrics.
func runProbes(d *deployment, target probeTarget, rec *spanRecorder, tmpRoot string) (map[string]float64, error) {
	p := &prober{rec: rec, out: make(map[string]float64)}
	now := time.Now()
	p.root = rec.add(0, "replay", now, now)
	if target.capture != nil {
		target.capture.mu.Lock()
		p.msgs = append(p.msgs, target.capture.events...)
		target.capture.mu.Unlock()
	}
	p.events = len(p.msgs)
	if p.events == 0 {
		return nil, errors.New("layer probes: the witness captured no logged events")
	}
	p.msgs = append(p.msgs, target.request)
	for _, m := range p.msgs {
		w, err := protocol.EncodeBinary(m)
		if err != nil {
			return nil, fmt.Errorf("layer probes: re-encode captured %s: %w", m.Type, err)
		}
		p.wires = append(p.wires, w)
	}
	p.protocol()
	if err := p.transport(); err != nil {
		return nil, err
	}
	if err := p.floor(); err != nil {
		return nil, err
	}
	p.grouplog()
	if err := p.wal(tmpRoot); err != nil {
		return nil, err
	}
	p.whiteboard()
	p.cluster()
	if err := p.broadcast(d, target); err != nil {
		return nil, err
	}
	rec.finish(p.root, time.Now())
	return p.out, nil
}

func (p *prober) protocol() {
	n := len(p.msgs)
	var encAllocs, decAllocs float64
	p.out["protocol.encode_ns"], encAllocs = p.batch("protocol.EncodeBinary", n, func() {
		for _, m := range p.msgs {
			if _, err := protocol.EncodeBinary(m); err != nil {
				panic(err) // these frames encoded a moment ago
			}
		}
	})
	p.out["protocol.decode_ns"], decAllocs = p.batch("protocol.DecodeBinary", n, func() {
		for _, w := range p.wires {
			if _, err := protocol.DecodeBinary(w); err != nil {
				panic(err) // these are EncodeBinary's own bytes
			}
			protocol.FrameTrace(w)
		}
	})
	p.out["protocol.allocs_per_frame"] = encAllocs + decAllocs
}

// tcpPair connects two transport.Conn ends over loopback TCP.
func tcpPair() (out, in transport.Conn, err error) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	out, err = transport.TCP{}.Dial(l.Addr())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		_ = out.Close()
		return nil, nil, a.err
	}
	return out, a.c, nil
}

// transport times frames over a loopback TCP pair. Send is one frame
// per call and SendAll the whole set as one batched write, both while
// the other end receives: what a sender pays. hop is what a receiver
// waits: one frame from Send to the peer's Recv returning, taken as
// half of a ping-pong round trip.
func (p *prober) transport() error {
	out, in, err := tcpPair()
	if err != nil {
		return err
	}
	received := make(chan struct{})
	go func() {
		defer close(received)
		for {
			if _, err := in.Recv(); err != nil {
				return
			}
		}
	}()
	var sendErr error
	p.out["transport.send_ns"], _ = p.batch("transport.Send", len(p.wires), func() {
		for _, w := range p.wires {
			if err := out.Send(w); err != nil {
				sendErr = err
			}
		}
	})
	p.out["transport.sendall_ns_per_msg"], _ = p.batch("transport.SendAll", len(p.wires), func() {
		if err := transport.SendAll(out, p.wires); err != nil {
			sendErr = err
		}
	})
	_ = out.Close() // ends the receiver
	<-received
	_ = in.Close()
	if sendErr != nil {
		return sendErr
	}

	ping, pong, err := tcpPair()
	if err != nil {
		return err
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			w, err := pong.Recv()
			if err != nil || pong.Send(w) != nil {
				return
			}
		}
	}()
	rtt, _ := p.batch("transport.Send+Recv", 2*len(p.wires), func() {
		for _, w := range p.wires {
			if err := ping.Send(w); err != nil {
				sendErr = err
				return
			}
			if _, err := ping.Recv(); err != nil {
				sendErr = err
				return
			}
		}
	})
	p.out["transport.hop_ns"] = rtt
	_ = ping.Close()
	<-echoed
	_ = pong.Close()
	return sendErr
}

// floor times Equal Control arbitration the way floor-churn exercises
// it: sixteen members, one holder, a queue one deep. Arbitrate queues
// the next member, Release promotes it.
func (p *prober) floor() error {
	const members, laps = 16, 16
	reg := group.NewRegistry()
	ids := make([]group.MemberID, members)
	for i := range ids {
		ids[i] = group.MemberID(fmt.Sprintf("m%d#%d", i, i))
		if err := reg.Register(group.Member{ID: ids[i], Name: string(ids[i]), Role: group.Participant, Priority: 2}); err != nil {
			return err
		}
		var err error
		if i == 0 {
			err = reg.CreateGroup("ring", ids[0])
		} else {
			err = reg.Join("ring", ids[i])
		}
		if err != nil {
			return err
		}
	}
	ctl := floor.NewController(reg, nil)
	if dec, err := ctl.Arbitrate("ring", ids[0], floor.EqualControl, ""); err != nil || !dec.Granted {
		return fmt.Errorf("layer probes: floor: first grant: %+v %v", dec, err)
	}
	holder := 0
	var arb, rel []float64
	var failed error
	for r := 0; r < probeRounds; r++ {
		var arbBusy, relBusy time.Duration
		start := time.Now()
		for i := 0; i < members*laps; i++ {
			next := (holder + 1) % members
			t0 := time.Now()
			_, err := ctl.Arbitrate("ring", ids[next], floor.EqualControl, "")
			t1 := time.Now()
			promoted, rerr := ctl.Release("ring", ids[holder])
			t2 := time.Now()
			if !errors.Is(err, floor.ErrBusy) || rerr != nil || promoted != ids[next] {
				failed = fmt.Errorf("layer probes: floor ring broke: arbitrate %v, release %v → %q", err, rerr, promoted)
			}
			arbBusy += t1.Sub(t0)
			relBusy += t2.Sub(t1)
			holder = next
		}
		arb = append(arb, float64(arbBusy)/(members*laps))
		rel = append(rel, float64(relBusy)/(members*laps))
		// Arbitrate and Release alternate, so their spans show each one's
		// busy time inside the round rather than one contiguous interval.
		p.rec.addBatch(p.root, "floor.Arbitrate", start, start.Add(arbBusy), members*laps, 0)
		p.rec.addBatch(p.root, "floor.Release", start, start.Add(relBusy), members*laps, 0)
	}
	p.out["floor.arbitrate_ns"], p.out["floor.release_ns"] = quantileOf(arb, 0.5), quantileOf(rel, 0.5)
	p.out["group.member_ids_ns"], _ = p.batch("group.GroupMemberIDs", 1024, func() {
		for i := 0; i < 1024; i++ {
			if _, err := reg.GroupMemberIDs("ring"); err != nil {
				failed = err
			}
		}
	})
	return failed
}

// grouplog times Append on a default-capacity log that already holds a
// capacity's worth of the workload's frames, so every append compacts
// as it does mid-run, and Replay of the last 32 events of each class.
func (p *prober) grouplog() {
	lg := grouplog.NewPlane(grouplog.DefaultCap).Get("probe")
	appendAll := func() {
		for i, m := range p.msgs[:p.events] {
			wire := p.wires[i]
			if _, err := lg.Append(m.Class, m.State, func(_, _ int64) ([]byte, error) { return wire, nil }, nil); err != nil {
				panic(err) // the encode callback cannot fail
			}
		}
	}
	for lg.Len() < grouplog.DefaultCap {
		appendAll()
	}
	p.out["grouplog.append_ns"], _ = p.batch("grouplog.Append", p.events, appendAll)
	emitted := 0
	p.out["grouplog.replay_ns_per_32"], _ = p.batch("grouplog.Replay", 1, func() {
		afters := make(map[string]int64)
		for class, head := range lg.ClassHeads() {
			afters[class] = head - 32
		}
		lg.Replay(afters, func(string) bool { return true }, func([]byte) { emitted++ })
	})
}

func (p *prober) wal(tmpRoot string) error {
	dir, err := os.MkdirTemp(tmpRoot, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := grouplog.OpenWAL(dir, 0)
	if err != nil {
		return err
	}
	var appendErr error
	p.out["wal.append_ns"], _ = p.batch("grouplog.WAL.Append", p.events, func() {
		for i, m := range p.msgs[:p.events] {
			rec := grouplog.WALRecord{Kind: grouplog.WALEvent, Key: m.Group, GSeq: m.GSeq, CSeq: m.CSeq, Class: m.Class, State: m.State}
			rec.SetWire(p.wires[i])
			if err := w.Append(rec); err != nil {
				appendErr = err
			}
		}
	})
	if err := w.Close(); err != nil {
		return err
	}
	return appendErr
}

func (p *prober) whiteboard() {
	const ops = 1024
	var server, replica *whiteboard.Board
	var made []whiteboard.Op
	p.out["whiteboard.append_ns"], _ = p.batch("whiteboard.Append", ops, func() {
		server, made = whiteboard.NewBoard(), made[:0]
		for i := 0; i < ops; i++ {
			op, err := server.Append("annotator0#1", whiteboard.Draw, "M 10 10 L 20 20")
			if err != nil {
				panic(err) // a non-empty author and a valid kind cannot be refused
			}
			made = append(made, op)
		}
	})
	p.out["whiteboard.apply_ns"], _ = p.batch("whiteboard.Apply", ops, func() {
		replica = whiteboard.NewBoard()
		for _, op := range made {
			if err := replica.Apply(op); err != nil {
				panic(err) // ops arrive dense and in order
			}
		}
	})
}

// cluster times the replication plane's per-event work on the captured
// frames: tracking and acking an in-flight forward, wrapping a logged
// event into a forward envelope, and applying it at a replica.
func (p *prober) cluster() {
	peers := []string{"127.0.0.1:1"}
	acks := cluster.NewAckTable(nil)
	p.out["cluster.ack_track_ns"], _ = p.batch("cluster.AckTable.Track+Ack", p.events, func() {
		for i := 0; i < p.events; i++ {
			id := acks.NextID()
			acks.Track(id, peers, p.wires[i])
			acks.Ack(peers[0], id)
		}
	})
	p.out["cluster.wrap_forward_ns"], _ = p.batch("cluster.WrapForward", p.events, func() {
		for i, m := range p.msgs[:p.events] {
			body := protocol.ForwardBody{Kind: protocol.ForwardReplica, Group: m.Group, ID: int64(i + 1), From: peers[0]}
			body.SetMsg(p.wires[i])
			cluster.WrapForward(body)
		}
	})
	p.out["cluster.replica_apply_ns"], _ = p.batch("cluster.ReplicaStore.ApplyEvent", p.events, func() {
		// A fresh store each round: a replica ignores sequence numbers
		// it already holds, and the captured frames repeat theirs.
		store := cluster.NewReplicaStore(grouplog.DefaultCap)
		for i, m := range p.msgs[:p.events] {
			store.ApplyEvent(m.Group, p.wires[i], nil)
		}
	})
}

// broadcast times Server.Broadcast on the deployment itself, once the
// workload is over: chat events to the group's sessions, until every
// session's board has them. The figure is per member reached.
func (p *prober) broadcast(d *deployment, target probeTarget) error {
	const events = 128
	srv := d.nodes[target.node]
	seq := target.sessions[0].Board(target.group).Seq()
	var stalled error
	ns, _ := p.batch("server.Broadcast", events*len(target.sessions), func() {
		for i := 0; i < events; i++ {
			seq++
			ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{Seq: seq, Author: "bench", Kind: "text", Data: "fanout"})
			ev.Group = target.group
			srv.Broadcast(target.group, ev)
		}
		for _, c := range target.sessions {
			c := c
			if !waitUntil(func() bool { return c.Board(target.group).Seq() >= seq }) {
				stalled = fmt.Errorf("layer probes: broadcast stalled at %d/%d for %s", c.Board(target.group).Seq(), seq, c.MemberID())
			}
		}
	})
	p.out["server.broadcast_ns_per_member"] = ns
	return stalled
}

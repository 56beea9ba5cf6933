package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmps/internal/netsim"
	"dmps/internal/transport"
)

// trunkPair is both ends of one trunk plus what a test needs to watch
// it: the streams the accepting end was handed, each end's counters,
// and how often the dialing end's onDown ran.
type trunkPair struct {
	dial, accept         *transport.Mux
	dialConn, acceptConn transport.Conn
	dialStats, accStats  transport.MuxStats
	accepted             chan transport.Conn
	downs                atomic.Int32
}

// networks are the two transports every trunk test runs over: netsim
// hands buffers across without copying (the ownership case), TCP frames
// them onto a real socket.
var networks = []struct {
	name string
	make func(t *testing.T) (transport.Network, string)
}{
	{"netsim", func(*testing.T) (transport.Network, string) { return netsim.New(1), "node:1" }},
	{"tcp", func(*testing.T) (transport.Network, string) { return transport.TCP{}, "127.0.0.1:0" }},
}

func eachNetwork(t *testing.T, run func(t *testing.T, p *trunkPair)) {
	for _, nw := range networks {
		t.Run(nw.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			network, addr := nw.make(t)
			l, err := network.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			p := &trunkPair{accepted: make(chan transport.Conn, 64)}
			if p.dialConn, err = network.Dial(l.Addr()); err != nil {
				t.Fatal(err)
			}
			if p.dial, err = transport.DialMux(p.dialConn, &p.dialStats, func() { p.downs.Add(1) }); err != nil {
				t.Fatal(err)
			}
			if p.acceptConn, err = l.Accept(); err != nil {
				t.Fatal(err)
			}
			if first, err := p.acceptConn.Recv(); err != nil || !transport.IsTrunkPreface(first) {
				t.Fatalf("first message %q, %v: want the trunk preface", first, err)
			}
			p.accept = transport.AcceptMux(p.acceptConn, &p.accStats, func(c transport.Conn) { p.accepted <- c })
			run(t, p)
			p.dial.Close()
			p.accept.Close()
			_ = l.Close()
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines fails the test if the goroutine count does not return
// to its baseline: readers notice their connection closing a moment
// after Close returns on the other end.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the trunk:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// open opens one stream and returns both of its ends.
func (p *trunkPair) open(t *testing.T) (near, far transport.Conn) {
	t.Helper()
	near, err := p.dial.Open()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case far = <-p.accepted:
		return near, far
	case <-time.After(5 * time.Second):
		t.Fatal("the accepting end never saw the stream open")
		return nil, nil
	}
}

func numbered(stream, i int) []byte { return []byte(fmt.Sprintf("stream %d message %d", stream, i)) }

// TestMuxPerStreamFIFO interleaves sixteen streams in both directions
// and requires every stream to deliver its own messages in order.
func TestMuxPerStreamFIFO(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		const streams, msgs = 16, 200
		var wg sync.WaitGroup
		pump := func(s int, from, to transport.Conn) {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if err := from.Send(numbered(s, i)); err != nil {
						t.Errorf("stream %d send %d: %v", s, i, err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					got, err := to.Recv()
					if err != nil || !bytes.Equal(got, numbered(s, i)) {
						t.Errorf("stream %d message %d: got %q, %v", s, i, got, err)
						return
					}
				}
			}()
		}
		for s := 0; s < streams; s++ {
			near, far := p.open(t)
			pump(s, near, far)
			pump(s+streams, far, near)
		}
		wg.Wait()
		if got := p.dialStats.Streams.Load(); got != streams {
			t.Errorf("dialing end counts %d open streams, want %d", got, streams)
		}
		if flushes, frames := p.dialStats.Flushes.Load(), p.dialStats.Frames.Load(); flushes == 0 || frames < streams*msgs {
			t.Errorf("dialing end counted %d frames in %d flushes", frames, flushes)
		}
	})
}

// TestMuxTrySendKeepsStreamOrder alternates TrySend and Send on every
// stream, in both directions: a TrySend queues behind the stream's
// earlier Sends and ahead of its later ones, so each stream still
// delivers in order. A refused TrySend falls back to Send, as a
// session's writer would take the frame.
func TestMuxTrySendKeepsStreamOrder(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		const streams, msgs = 8, 200
		var wg sync.WaitGroup
		pump := func(s int, from, to transport.Conn) {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					msg := numbered(s, i)
					if i%2 == 0 {
						if ok, _ := from.(transport.TrySender).TrySend(msg); ok {
							continue
						}
					}
					if err := from.Send(msg); err != nil {
						t.Errorf("stream %d send %d: %v", s, i, err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					got, err := to.Recv()
					if err != nil || !bytes.Equal(got, numbered(s, i)) {
						t.Errorf("stream %d message %d: got %q, %v", s, i, got, err)
						return
					}
				}
			}()
		}
		for s := 0; s < streams; s++ {
			near, far := p.open(t)
			pump(s, near, far)
			pump(s+streams, far, near)
		}
		wg.Wait()
	})
}

// TestMuxOpenClose closes streams from either end: the other end drains
// what was sent before the close, then reads ErrClosed, and can no
// longer send; closing twice and closing an ended stream are harmless.
func TestMuxOpenClose(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		for _, closer := range []string{"dialing", "accepting"} {
			near, far := p.open(t)
			a, b := near, far
			if closer == "accepting" {
				a, b = far, near
			}
			if err := a.Send([]byte("last words")); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := b.Recv(); err != nil || string(got) != "last words" {
				t.Fatalf("%s end closed: peer read %q, %v before the close", closer, got, err)
			}
			if _, err := b.Recv(); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("%s end closed: peer Recv = %v, want ErrClosed", closer, err)
			}
			if err := b.Send([]byte("too late")); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("%s end closed: peer Send = %v, want ErrClosed", closer, err)
			}
			if _, err := a.Recv(); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("%s end closed: own Recv = %v, want ErrClosed", closer, err)
			}
			_ = a.Close()
			_ = b.Close()
		}
		// A stream opened after others closed still works: ids move on.
		near, far := p.open(t)
		if err := near.Send([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		if got, err := far.Recv(); err != nil || string(got) != "hello" {
			t.Fatalf("fresh stream read %q, %v", got, err)
		}
		_ = near.Close()
		if _, err := far.Recv(); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("fresh stream Recv after close = %v", err)
		}
		if d, a := p.dialStats.Streams.Load(), p.accStats.Streams.Load(); d != 0 || a != 0 {
			t.Errorf("open streams after closing all: dialing %d, accepting %d", d, a)
		}
		if _, err := p.accept.Open(); err == nil {
			t.Error("the accepting end opened a stream")
		}
	})
}

// TestMuxStalledStreamIsResetAlone is the head-of-line case: one of
// sixteen consumers stops reading. Its stream overflows and is reset;
// the other fifteen never notice, in either direction.
func TestMuxStalledStreamIsResetAlone(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		const streams = 16
		near := make([]transport.Conn, streams)
		far := make([]transport.Conn, streams)
		for s := range near {
			near[s], far[s] = p.open(t)
		}
		// Nobody reads far[0]. Fill its inbox and go one past; a frame on
		// stream 1 sent afterwards proves the accepting end has processed
		// all of it.
		sent := 0
		for ; p.accStats.ResetsOverflow.Load() == 0; sent++ {
			if sent > 1<<16 {
				t.Fatal("no overflow after 65536 unread frames")
			}
			if err := near[0].Send(numbered(0, sent)); err != nil {
				t.Fatalf("send %d to the stalled stream: %v", sent, err)
			}
			if err := near[1].Send(numbered(1, sent)); err != nil {
				t.Fatal(err)
			}
			if got, err := far[1].Recv(); err != nil || !bytes.Equal(got, numbered(1, sent)) {
				t.Fatalf("stream 1 behind the stalled one read %q, %v", got, err)
			}
		}
		if got := p.accStats.ResetsOverflow.Load(); got != 1 {
			t.Fatalf("%d overflow resets, want 1", got)
		}
		// The stalled stream's owner drains what fit, then learns.
		for i := 0; i < sent-1; i++ {
			if got, err := far[0].Recv(); err != nil || !bytes.Equal(got, numbered(0, i)) {
				t.Fatalf("stalled stream backlog %d: %q, %v", i, got, err)
			}
		}
		if _, err := far[0].Recv(); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("stalled stream Recv = %v, want ErrClosed", err)
		}
		// Its Close tells the sender, as a reset; a frame behind the reset
		// on another stream proves the sender has processed it.
		_ = far[0].Close()
		if err := far[1].Send([]byte("after the reset")); err != nil {
			t.Fatal(err)
		}
		if _, err := near[1].Recv(); err != nil {
			t.Fatal(err)
		}
		if err := near[0].Send([]byte("into the void")); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Send on the reset stream = %v, want ErrClosed", err)
		}
		if got := p.dialStats.ResetsPeer.Load(); got != 1 {
			t.Errorf("sender counted %d peer resets, want 1", got)
		}
		// The other fifteen flow both ways.
		for s := 1; s < streams; s++ {
			if err := near[s].Send(numbered(s, -1)); err != nil {
				t.Fatal(err)
			}
			if got, err := far[s].Recv(); err != nil || !bytes.Equal(got, numbered(s, -1)) {
				t.Fatalf("stream %d after the reset: %q, %v", s, got, err)
			}
			if err := far[s].Send(numbered(s, -2)); err != nil {
				t.Fatal(err)
			}
			if got, err := near[s].Recv(); err != nil || !bytes.Equal(got, numbered(s, -2)) {
				t.Fatalf("stream %d back after the reset: %q, %v", s, got, err)
			}
		}
		if p.dial.Dead() || p.accept.Dead() {
			t.Error("the trunk died with the stalled stream")
		}
	})
}

// TestMuxTrunkDeath severs the connection under sixteen streams with a
// reader parked on each end of every one: all of them return ErrClosed,
// onDown runs exactly once, and (eachNetwork checks) no goroutine stays.
func TestMuxTrunkDeath(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		const streams = 16
		errs := make(chan error, 2*streams)
		for s := 0; s < streams; s++ {
			near, far := p.open(t)
			for _, end := range []transport.Conn{near, far} {
				go func() {
					_, err := end.Recv()
					errs <- err
				}()
			}
		}
		_ = p.acceptConn.Close()
		for i := 0; i < 2*streams; i++ {
			if err := <-errs; !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Recv on a dead trunk = %v, want ErrClosed", err)
			}
		}
		p.dial.Wait()
		p.accept.Wait()
		if !p.dial.Dead() || !p.accept.Dead() {
			t.Error("a trunk end outlived its connection")
		}
		if got := p.downs.Load(); got != 1 {
			t.Errorf("onDown ran %d times, want 1", got)
		}
		if got := p.dialStats.Down.Load(); got != 1 {
			t.Errorf("dialing end counted %d trunk deaths, want 1", got)
		}
		if _, err := p.dial.Open(); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("Open on a dead trunk = %v, want ErrClosed", err)
		}
		if d, a := p.dialStats.Streams.Load(), p.accStats.Streams.Load(); d != 0 || a != 0 {
			t.Errorf("open streams after trunk death: dialing %d, accepting %d", d, a)
		}
	})
}

// TestMuxPayloadOwnership holds on to frames delivered early and checks
// them after hundreds of later flushes: a delivered payload is never
// written again (netsim hands the sender's flush buffer to the receiver
// as is, so a reused buffer would show up here), and the sender may
// reuse its own payload buffer as soon as Send returns.
func TestMuxPayloadOwnership(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		a, farA := p.open(t)
		b, farB := p.open(t)
		const held, later = 32, 400
		scratch := make([]byte, 64)
		send := func(c transport.Conn, tag byte, i int) {
			for j := range scratch {
				scratch[j] = tag
			}
			binary.BigEndian.PutUint32(scratch, uint32(i))
			if err := c.Send(scratch); err != nil {
				t.Fatal(err)
			}
		}
		check := func(got []byte, tag byte, i int) {
			t.Helper()
			want := bytes.Repeat([]byte{tag}, 64)
			binary.BigEndian.PutUint32(want, uint32(i))
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %c%d reads %x", tag, i, got)
			}
		}
		// A buffer rewritten while it is still in flight loses its frame
		// outright; recv turns that wait into a failure.
		recv := func(c transport.Conn) []byte {
			t.Helper()
			got := make(chan []byte, 1)
			go func() {
				if b, err := c.Recv(); err == nil {
					got <- b
				}
			}()
			select {
			case b := <-got:
				return b
			case <-time.After(5 * time.Second):
				t.Fatal("a sent frame never arrived")
				return nil
			}
		}
		var kept [][]byte
		for i := 0; i < held; i++ {
			send(a, 'A', i)
			kept = append(kept, recv(farA))
		}
		for i := 0; i < later; i++ {
			send(b, 'B', i)
			send(a, 'A', held+i)
			check(recv(farB), 'B', i)
			check(recv(farA), 'A', held+i)
		}
		for i, got := range kept {
			check(got, 'A', i)
		}
	})
}

// scriptConn is a Conn whose peer is the test: Recv hands out the
// scripted messages, then reports that the reader came back for more
// and parks until Close.
type scriptConn struct {
	script [][]byte
	next   int
	idle   chan struct{} // closed when the script is exhausted
	closed chan struct{}
	once   sync.Once
}

func (c *scriptConn) Recv() ([]byte, error) {
	if c.next < len(c.script) {
		c.next++
		return c.script[c.next-1], nil
	}
	close(c.idle)
	<-c.closed
	return nil, transport.ErrClosed
}
func (c *scriptConn) Send([]byte) error  { return nil }
func (c *scriptConn) Close() error       { c.once.Do(func() { close(c.closed) }); return nil }
func (c *scriptConn) LocalAddr() string  { return "script" }
func (c *scriptConn) RemoteAddr() string { return "script" }

func frame(kind byte, id uint32, length uint32, payload string) []byte {
	b := make([]byte, 9, 9+len(payload))
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:], id)
	binary.BigEndian.PutUint32(b[5:], length)
	return append(b, payload...)
}

// wellFormed is the frame grammar written out independently of the
// implementation, for the accepting end of a fresh trunk: it reports
// whether msg must be accepted.
func wellFormed(msg []byte) bool {
	var lastID uint32
	for len(msg) > 0 {
		if len(msg) < 9 {
			return false
		}
		kind, id, n := msg[0], binary.BigEndian.Uint32(msg[1:]), binary.BigEndian.Uint32(msg[5:])
		if uint64(n) > uint64(len(msg)-9) {
			return false
		}
		switch {
		case kind == 1 && id > lastID && n == 0:
			lastID = id
		case kind == 2 && id >= 1 && id <= lastID:
		case (kind == 3 || kind == 4) && id >= 1 && id <= lastID && n == 0:
		default:
			return false
		}
		msg = msg[9+n:]
	}
	return true
}

// FuzzMuxFrames feeds one arbitrary trunk message to the accepting end.
// A well-formed message leaves the trunk up; anything else — truncated
// header, length past the message or past MaxMessageSize, unknown kind,
// unknown stream id — kills the trunk with an error. Nothing panics and
// nothing is allocated from a length field (the fuzzer's memory limit
// would catch a 4 GiB make).
func FuzzMuxFrames(f *testing.F) {
	f.Add(append(frame(1, 1, 0, ""), frame(2, 1, 5, "hello")...))
	f.Add(append(append(frame(1, 1, 0, ""), frame(1, 2, 0, "")...), append(frame(3, 1, 0, ""), frame(4, 2, 0, "")...)...))
	f.Add(frame(1, 1, 0, "")[:5])                                          // truncated header
	f.Add(append(frame(1, 1, 0, ""), frame(2, 1, 0xFFFFFFFF, "short")...)) // length past MaxMessageSize
	f.Add(append(frame(1, 1, 0, ""), frame(2, 1, 6, "short")...))          // length past the message
	f.Add(append(frame(1, 1, 0, ""), frame(9, 1, 0, "")...))               // unknown kind
	f.Add(frame(2, 7, 2, "hi"))                                            // stream never opened
	f.Add(append(frame(1, 1, 0, ""), frame(1, 1, 0, "")...))               // stream opened twice
	f.Add(frame(1, 1, 3, "abc"))                                           // open with a payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, msg []byte) {
		conn := &scriptConn{script: [][]byte{msg}, idle: make(chan struct{}), closed: make(chan struct{})}
		var stats transport.MuxStats
		var streams []transport.Conn
		m := transport.AcceptMux(conn, &stats, func(c transport.Conn) { streams = append(streams, c) })
		select {
		case <-conn.idle:
			if !wellFormed(msg) {
				t.Errorf("malformed message %x left the trunk up", msg)
			}
		case <-conn.closed:
			if wellFormed(msg) {
				t.Errorf("well-formed message %x killed the trunk", msg)
			}
		}
		m.Close()
		for _, c := range streams {
			for {
				if _, err := c.Recv(); err != nil {
					break
				}
			}
		}
		if got := stats.Streams.Load(); got != 0 {
			t.Errorf("%d streams still counted after Close", got)
		}
	})
}

// TestMuxOpenCarriesFirstMessages: the messages handed to Open leave in
// the open frame's own trunk write — one flush, the open plus one frame
// each — and the accepting end reads them in order off the new stream.
// Open with none flushes the open frame alone.
func TestMuxOpenCarriesFirstMessages(t *testing.T) {
	eachNetwork(t, func(t *testing.T, p *trunkPair) {
		for _, first := range [][][]byte{nil, {[]byte("hello")}, {[]byte("hello"), []byte("routed")}} {
			flushes, frames := p.dialStats.Flushes.Load(), p.dialStats.Frames.Load()
			near, err := p.dial.Open(first...)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.dialStats.Flushes.Load() - flushes; got != 1 {
				t.Errorf("Open with %d messages: %d trunk writes, want 1", len(first), got)
			}
			if got := p.dialStats.Frames.Load() - frames; got != int64(1+len(first)) {
				t.Errorf("Open with %d messages: %d frames, want %d", len(first), got, 1+len(first))
			}
			var far transport.Conn
			select {
			case far = <-p.accepted:
			case <-time.After(5 * time.Second):
				t.Fatal("the accepting end never saw the stream open")
			}
			for i, want := range first {
				if got, err := far.Recv(); err != nil || !bytes.Equal(got, want) {
					t.Errorf("message %d: got %q, %v; want %q", i, got, err, want)
				}
			}
			// Nothing else rides the stream: an echo comes back as the
			// next message, and the stream closes cleanly.
			if err := near.Send([]byte("after")); err != nil {
				t.Fatal(err)
			}
			if got, err := far.Recv(); err != nil || string(got) != "after" {
				t.Errorf("after the first messages: got %q, %v", got, err)
			}
			_ = near.Close()
			_ = far.Close()
		}
	})
}

// stalledConn is a trunk connection whose peer has stopped reading:
// the preface goes out, and every later Send blocks until Close.
type stalledConn struct {
	sends  atomic.Int32
	stuck  chan struct{} // closed when a Send first blocks
	closed chan struct{}
	once   sync.Once
}

func (c *stalledConn) Send([]byte) error {
	switch c.sends.Add(1) {
	case 1:
		return nil
	case 2:
		close(c.stuck)
	}
	<-c.closed
	return transport.ErrClosed
}
func (c *stalledConn) Recv() ([]byte, error) { <-c.closed; return nil, transport.ErrClosed }
func (c *stalledConn) Close() error          { c.once.Do(func() { close(c.closed) }); return nil }
func (c *stalledConn) LocalAddr() string     { return "stalled" }
func (c *stalledConn) RemoteAddr() string    { return "stalled" }

// stalledNet dials the one stalled connection.
type stalledNet struct{ conn *stalledConn }

func (n stalledNet) Dial(string) (transport.Conn, error)       { return n.conn, nil }
func (n stalledNet) Listen(string) (transport.Listener, error) { return nil, transport.ErrClosed }

// TestTrunkCloseFreesStalledOpens: opens on a trunk whose peer stopped
// reading park — one in the blocked write, later ones waiting for room
// for their first messages — and Trunk.Close must still run, close the
// connection and free every one of them.
func TestTrunkCloseFreesStalledOpens(t *testing.T) {
	conn := &stalledConn{stuck: make(chan struct{}), closed: make(chan struct{})}
	var stats transport.MuxStats
	trunk := transport.NewTrunk(stalledNet{conn}, "stalled", &stats, nil)
	big := make([]byte, 200<<10)
	var opens sync.WaitGroup
	open := func(first ...[]byte) {
		opens.Add(1)
		go func() {
			defer opens.Done()
			if st, err := trunk.Open(first...); err == nil {
				_ = st.Close()
			}
		}()
	}
	open() // becomes the flusher and blocks in the write
	<-conn.stuck
	open(big) // queued behind the blocked write
	open(big) // no room left: waits
	closed := make(chan struct{})
	go func() {
		trunk.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Trunk.Close blocked behind an open parked on a stalled trunk")
	}
	opens.Wait()
}

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// rawPair returns the two ends of a loopback TCP connection as the
// sockets themselves, so a test can shape them before wrapping.
func rawPair(t *testing.T) (out, in *net.TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// TestTrySendTakesAnIdleSocket: a frame to a socket with room goes out
// whole in the one non-blocking write, and arrives as Send's would.
func TestTrySendTakesAnIdleSocket(t *testing.T) {
	c, s := rawPair(t)
	out, in := newTCPConn(c), newTCPConn(s)
	if ok, tail := out.TrySend([]byte("hello")); !ok || tail {
		t.Fatalf("TrySend on an idle socket = %v, %v; want true, false", ok, tail)
	}
	got, err := in.Recv()
	if err != nil || string(got) != "hello" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out.TrySend([]byte("x"))
		in.Recv()
	}); allocs > 1 { // the one Recv allocates
		t.Errorf("TrySend + Recv: %.1f allocs, want at most Recv's 1", allocs)
	}
}

// TestTrySendShortWrite shrinks the test's own sending socket's buffer
// so a large frame is only partly taken: TrySend must still return at
// once, refuse the next TrySend while the rest is owed, and the next
// Send must write that rest ahead of its own frame — the peer reads
// both frames whole and in order.
func TestTrySendShortWrite(t *testing.T) {
	c, s := rawPair(t)
	if err := c.SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	out, in := newTCPConn(c), newTCPConn(s)
	big := bytes.Repeat([]byte{'a'}, 1<<20) // past the peer's receive window too
	t0 := time.Now()
	ok, tail := out.TrySend(big)
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("TrySend blocked %v", d)
	}
	if !ok || !tail {
		t.Fatalf("TrySend of a frame past the socket buffer = %v, %v; want true, true", ok, tail)
	}
	if ok, _ := out.TrySend([]byte("overtake")); ok {
		t.Fatal("TrySend wrote past an unfinished frame")
	}
	sent := make(chan error, 1)
	go func() { sent <- out.Send([]byte("next")) }()
	got, err := in.Recv()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("first frame: %d bytes, %v; want the %d-byte frame whole", len(got), err, len(big))
	}
	if got, err := in.Recv(); err != nil || string(got) != "next" {
		t.Fatalf("second frame = %q, %v; want \"next\"", got, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	// The rest is written; TrySend takes frames again.
	if ok, tail := out.TrySend([]byte("again")); !ok || tail {
		t.Fatalf("TrySend after the rest was written = %v, %v", ok, tail)
	}
	if got, err := in.Recv(); err != nil || string(got) != "again" {
		t.Fatalf("third frame = %q, %v", got, err)
	}
}

// TestTrySendEmptyBatchFinishesTheRest: an empty SendBatch writes just
// the rest of a half-written frame — how a writer finishes one when
// nothing else follows it.
func TestTrySendEmptyBatchFinishesTheRest(t *testing.T) {
	c, s := rawPair(t)
	if err := c.SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	out, in := newTCPConn(c), newTCPConn(s)
	big := bytes.Repeat([]byte{'b'}, 1<<20)
	if ok, tail := out.TrySend(big); !ok || !tail {
		t.Fatalf("TrySend = %v, %v; want a half-written frame", ok, tail)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- SendAll(out, nil) }()
	got, err := in.Recv()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("frame: %d bytes, %v; want %d whole", len(got), err, len(big))
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
}

// TestTrySendClosed: a closed connection takes nothing.
func TestTrySendClosed(t *testing.T) {
	c, _ := rawPair(t)
	out := newTCPConn(c)
	out.Close()
	if ok, _ := out.TrySend([]byte("late")); ok {
		t.Fatal("TrySend on a closed connection reported the frame taken")
	}
}

// gateConn is an accepting trunk's connection whose peer is the test:
// Recv hands out one open frame for stream 1, then parks until Close;
// the first Send blocks until release is closed, and every Send is kept.
type gateConn struct {
	opened  bool
	stuck   chan struct{} // closed when the first Send blocks
	release chan struct{}
	closed  chan struct{}
	once    sync.Once
	mu      sync.Mutex
	sent    [][]byte
}

func newGateConn() *gateConn {
	return &gateConn{stuck: make(chan struct{}), release: make(chan struct{}), closed: make(chan struct{})}
}

func (c *gateConn) Recv() ([]byte, error) {
	if !c.opened {
		c.opened = true
		return []byte{muxOpen, 0, 0, 0, 1, 0, 0, 0, 0}, nil
	}
	<-c.closed
	return nil, ErrClosed
}

func (c *gateConn) Send(msg []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, msg)
	first := len(c.sent) == 1
	c.mu.Unlock()
	if first {
		close(c.stuck)
		select {
		case <-c.release:
		case <-c.closed:
			return ErrClosed
		}
	}
	return nil
}

func (c *gateConn) Close() error       { c.once.Do(func() { close(c.closed) }); return nil }
func (c *gateConn) LocalAddr() string  { return "gate" }
func (c *gateConn) RemoteAddr() string { return "gate" }

// gatedStream accepts stream 1 on a trunk over a gateConn.
func gatedStream(t *testing.T) (*Mux, *gateConn, *Stream, *MuxStats) {
	t.Helper()
	conn, stats := newGateConn(), new(MuxStats)
	accepted := make(chan Conn, 1)
	m := AcceptMux(conn, stats, func(c Conn) { accepted <- c })
	t.Cleanup(m.Close)
	select {
	case st := <-accepted:
		return m, conn, st.(*Stream), stats
	case <-time.After(5 * time.Second):
		t.Fatal("stream 1 was never accepted")
		return nil, nil, nil, nil
	}
}

// TestStreamTrySendGathers: TrySend only queues, and the trunk's
// flusher writes what gathered. While the flusher's first write is
// blocked, fifteen more TrySends return at once, and they leave
// together in its next write: two flushes, sixteen frames, in order.
func TestStreamTrySendGathers(t *testing.T) {
	_, conn, st, stats := gatedStream(t)
	if ok, tail := st.TrySend([]byte("m0")); !ok || tail {
		t.Fatalf("TrySend on an idle trunk = %v, %v; want true, false", ok, tail)
	}
	<-conn.stuck
	for i := 1; i < 16; i++ {
		if ok, _ := st.TrySend([]byte(fmt.Sprintf("m%d", i))); !ok {
			t.Fatalf("TrySend %d behind a blocked write was refused", i)
		}
	}
	close(conn.release)
	deadline := time.Now().Add(5 * time.Second)
	for stats.Frames.Load() < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("flusher wrote %d frames, want 16", stats.Frames.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := stats.Flushes.Load(); got != 2 {
		t.Errorf("Flushes = %d, want 2", got)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	var got []string
	for _, msg := range conn.sent {
		for len(msg) >= muxHeaderLen {
			end := muxHeaderLen + int(binary.BigEndian.Uint32(msg[5:]))
			got = append(got, string(msg[muxHeaderLen:end]))
			msg = msg[end:]
		}
	}
	if len(conn.sent) != 2 || len(got) != 16 {
		t.Fatalf("%d writes carried %v; want 2 writes, 16 frames", len(conn.sent), got)
	}
	for i, p := range got {
		if p != fmt.Sprintf("m%d", i) {
			t.Fatalf("frames out of order: %v", got)
		}
	}
}

// TestStreamTrySendRefuses: TrySend takes nothing from a closed stream,
// from a stream whose trunk died, past the bytes a trunk may hold
// pending, or over the largest message a stream carries.
func TestStreamTrySendRefuses(t *testing.T) {
	t.Run("closed stream", func(t *testing.T) {
		_, conn, st, _ := gatedStream(t)
		close(conn.release) // the close frame's write must not block
		st.Close()
		if ok, _ := st.TrySend([]byte("late")); ok {
			t.Fatal("TrySend on a closed stream reported the frame taken")
		}
	})
	t.Run("dead trunk", func(t *testing.T) {
		m, conn, st, _ := gatedStream(t)
		conn.Close() // the reader fails, and the trunk dies
		m.Wait()
		if ok, _ := st.TrySend([]byte("late")); ok {
			t.Fatal("TrySend on a dead trunk reported the frame taken")
		}
	})
	t.Run("no room", func(t *testing.T) {
		_, conn, st, _ := gatedStream(t)
		st.TrySend([]byte("first"))
		<-conn.stuck // the flusher holds the first frame; the rest stays pending
		chunk := make([]byte, 64<<10)
		taken := 0
		for ; taken < muxMaxPending/len(chunk); taken++ {
			if ok, _ := st.TrySend(chunk); !ok {
				break
			}
		}
		if ok, _ := st.TrySend(chunk); ok {
			t.Fatalf("TrySend took a chunk past %d pending bytes (%d chunks taken)", muxMaxPending, taken)
		}
		if taken == 0 {
			t.Fatal("TrySend refused a chunk into an empty pending write")
		}
	})
	t.Run("too large", func(t *testing.T) {
		_, _, st, _ := gatedStream(t)
		if ok, _ := st.TrySend(make([]byte, MaxStreamMessage+1)); ok {
			t.Fatal("TrySend took a payload over MaxStreamMessage")
		}
	})
}

// flushers counts the trunk flusher goroutines alive.
func flushers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Mux).flushLoop("))
}

// TestStreamFlusherExits: a trunk's flusher goroutine is gone once the
// trunk is closed and once it has died.
func TestStreamFlusherExits(t *testing.T) {
	for _, end := range []string{"close", "death"} {
		t.Run(end, func(t *testing.T) {
			before := flushers()
			m, conn, _, _ := gatedStream(t)
			if got := flushers(); got != before+1 {
				t.Fatalf("%d flushers with one trunk open, want %d", got, before+1)
			}
			if end == "close" {
				m.Close()
			} else {
				conn.Close()
				m.Wait()
			}
			deadline := time.Now().Add(5 * time.Second)
			for flushers() > before {
				if time.Now().After(deadline) {
					t.Fatalf("the flusher outlived the trunk's %s", end)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestAcceptMarksTransientErrors: the errors a listener outlives carry
// ErrTransient; a closed listener's does not.
func TestAcceptMarksTransientErrors(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM} {
		if !transientAccept(&net.OpError{Op: "accept", Err: errno}) {
			t.Errorf("%v: not transient", errno)
		}
	}
	if transientAccept(syscall.EBADF) {
		t.Error("EBADF: transient")
	}
	var network TCP
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) || errors.Is(err, ErrTransient) {
		t.Errorf("Accept after Close = %v; want ErrClosed, not transient", err)
	}
}

// TestAcceptDelay: 5 ms, doubling, capped at 1 s.
func TestAcceptDelay(t *testing.T) {
	var d time.Duration
	var got []time.Duration
	for i := 0; i < 10; i++ {
		d = AcceptDelay(d)
		got = append(got, d)
	}
	want := []time.Duration{5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("delays = %v", got)
		}
	}
}

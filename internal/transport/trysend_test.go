package transport

import (
	"bytes"
	"errors"
	"net"
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

// TestStreamHasNoTrySend: a trunk stream keeps its session's writer
// queue — the mux's writer already merges a fan-out into one trunk
// write — so it must not offer the capability.
func TestStreamHasNoTrySend(t *testing.T) {
	if _, ok := any(&Stream{}).(TrySender); ok {
		t.Fatal("*Stream implements TrySender")
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

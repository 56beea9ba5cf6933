package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
)

// TCP is the real-socket implementation of Network. Messages are framed
// with a 4-byte big-endian length prefix. A frame, or a whole batch of
// frames, costs one write on the way out and is read through a
// per-connection buffer on the way in, so frames that arrive together
// cost one read.
type TCP struct{}

var _ Network = TCP{}

// Listen implements Network.
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Network.
func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w (%w)", addr, err, ErrUnknownAddress)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l      net.Listener
	closed sync.Once
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		if transientAccept(err) {
			return nil, fmt.Errorf("transport: accept: %w (%w)", err, ErrTransient)
		}
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(c), nil
}

// transientAccept reports whether an accept error is one the listener
// outlives: the process or the kernel out of descriptors or memory for
// the moment. (An aborted connection never surfaces: net retries it.)
func transientAccept(err error) bool {
	var errno syscall.Errno
	if !errors.As(err, &errno) {
		return false
	}
	return errno.Temporary() || errno == syscall.ENOBUFS || errno == syscall.ENOMEM
}

func (t *tcpListener) Close() error {
	var err error
	t.closed.Do(func() { err = t.l.Close() })
	return err
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c      net.Conn
	r      *bufio.Reader
	sendMu sync.Mutex
	// raw reaches the socket for TrySend's non-blocking write (nil when
	// c is not a socket); tryWrite is the one callback it runs, built
	// once so a TrySend allocates nothing, and tryBuf, tryN and tryErr
	// its argument and results. tail is the unwritten rest of a frame a
	// TrySend half-wrote, and tailBuf the pooled buffer it lives in.
	// All of them are guarded by sendMu.
	raw      syscall.RawConn
	tryWrite func(fd uintptr) bool
	tryBuf   []byte
	tryN     int
	tryErr   error
	tail     []byte
	tailBuf  *[]byte
	recvMu   sync.Mutex
	lenBuf   [4]byte
	closed   sync.Once
	closeMu  sync.Mutex
	dead     bool
}

// recvBufBytes sizes a connection's read buffer: room for a fan-out
// burst of small frames in one read, small enough to hold per
// connection. Payloads larger than the buffer are read straight into
// their own slice.
const recvBufBytes = 8 << 10

func newTCPConn(c net.Conn) *tcpConn {
	t := &tcpConn{c: c, r: bufio.NewReaderSize(c, recvBufBytes)}
	if sc, ok := c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			t.raw = raw
			t.tryWrite = func(fd uintptr) bool {
				t.tryN, t.tryErr = syscall.Write(int(fd), t.tryBuf)
				return true // never wait for the socket to drain
			}
		}
	}
	return t
}

// Send is a batch of one: header and payload leave in a single write.
func (t *tcpConn) Send(payload []byte) error {
	one := [1][]byte{payload}
	return t.SendBatch(one[:])
}

// packBufs pools batch packing buffers. Oversized buffers (past 1 MiB)
// are dropped instead of pooled so one huge drain does not pin its
// high-water mark forever.
var packBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

// putPackBuf returns a packing buffer to the pool, unless it grew past
// the size worth keeping.
func putPackBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= 1<<20 {
		*bp = buf
		packBufs.Put(bp)
	}
}

// pack appends each payload's frame (4-byte big-endian length prefix +
// payload) to buf.
func pack(buf []byte, payloads [][]byte) []byte {
	var header [4]byte
	for _, p := range payloads {
		binary.BigEndian.PutUint32(header[:], uint32(len(p)))
		buf = append(buf, header[:]...)
		buf = append(buf, p...)
	}
	return buf
}

// isDead reports whether Close has run.
func (t *tcpConn) isDead() bool {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	return t.dead
}

// SendBatch implements BatchSender: every frame (4-byte big-endian
// length prefix + payload, the same framing Send uses) is packed into
// one pooled buffer, behind the rest of a frame a TrySend half-wrote,
// and written with a single syscall. An empty batch writes just that
// rest, if there is one.
func (t *tcpConn) SendBatch(payloads [][]byte) error {
	for _, p := range payloads {
		if len(p) > MaxMessageSize {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p))
		}
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if t.isDead() {
		return ErrClosed
	}
	if len(payloads) == 0 && t.tail == nil {
		return nil
	}
	bp := packBufs.Get().(*[]byte)
	buf := pack(append((*bp)[:0], t.tail...), payloads)
	if t.tail != nil {
		putPackBuf(t.tailBuf, *t.tailBuf)
		t.tail, t.tailBuf = nil, nil
	}
	_, err := t.c.Write(buf)
	putPackBuf(bp, buf)
	if err != nil {
		return t.mapErr(err)
	}
	return nil
}

// TrySend implements TrySender with one non-blocking write(2) of the
// framed payload. A socket whose buffer is full takes nothing (EAGAIN)
// and TrySend reports false; one that takes part of the frame leaves
// the rest in tail for the next SendBatch. A connection that is busy in
// another send, holds a tail already, is closed, or is not a socket
// reports false, as does any write error — the blocking path that
// follows meets and reports it.
func (t *tcpConn) TrySend(payload []byte) (ok, tail bool) {
	if t.raw == nil || len(payload) > MaxMessageSize || !t.sendMu.TryLock() {
		return false, false
	}
	defer t.sendMu.Unlock()
	if t.tail != nil || t.isDead() {
		return false, false
	}
	one := [1][]byte{payload}
	bp := packBufs.Get().(*[]byte)
	buf := pack((*bp)[:0], one[:])
	t.tryBuf = buf
	err := t.raw.Write(t.tryWrite)
	n := t.tryN
	if err == nil {
		err = t.tryErr
	}
	t.tryBuf, t.tryErr = nil, nil
	if err != nil || n <= 0 {
		putPackBuf(bp, buf)
		return false, false
	}
	if n < len(buf) {
		*bp = buf
		t.tail, t.tailBuf = buf[n:], bp
		return true, true
	}
	putPackBuf(bp, buf)
	return true, false
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if _, err := io.ReadFull(t.r, t.lenBuf[:]); err != nil {
		return nil, t.mapErr(err)
	}
	n := binary.BigEndian.Uint32(t.lenBuf[:])
	if n > MaxMessageSize {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(t.r, payload); err != nil {
		return nil, t.mapErr(err)
	}
	return payload, nil
}

func (t *tcpConn) Close() error {
	var err error
	t.closed.Do(func() {
		t.closeMu.Lock()
		t.dead = true
		t.closeMu.Unlock()
		err = t.c.Close()
	})
	return err
}

func (t *tcpConn) LocalAddr() string  { return t.c.LocalAddr().String() }
func (t *tcpConn) RemoteAddr() string { return t.c.RemoteAddr().String() }

// mapErr folds the many shutdown error shapes of net into ErrClosed so
// callers have one sentinel to test.
func (t *tcpConn) mapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && !ne.Timeout() {
		return fmt.Errorf("transport: %w (%w)", err, ErrClosed)
	}
	return fmt.Errorf("transport: %w", err)
}

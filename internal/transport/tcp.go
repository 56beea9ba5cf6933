package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Close() error {
	var err error
	t.closed.Do(func() { err = t.l.Close() })
	return err
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

type tcpConn struct {
	c       net.Conn
	r       *bufio.Reader
	sendMu  sync.Mutex
	recvMu  sync.Mutex
	lenBuf  [4]byte
	closed  sync.Once
	closeMu sync.Mutex
	dead    bool
}

// recvBufBytes sizes a connection's read buffer: room for a fan-out
// burst of small frames in one read, small enough to hold per
// connection. Payloads larger than the buffer are read straight into
// their own slice.
const recvBufBytes = 8 << 10

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, recvBufBytes)}
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

// SendBatch implements BatchSender: every frame (4-byte big-endian
// length prefix + payload, the same framing Send uses) is packed into
// one pooled buffer and written with a single syscall.
func (t *tcpConn) SendBatch(payloads [][]byte) error {
	for _, p := range payloads {
		if len(p) > MaxMessageSize {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p))
		}
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	t.closeMu.Lock()
	dead := t.dead
	t.closeMu.Unlock()
	if dead {
		return ErrClosed
	}
	bp := packBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	var header [4]byte
	for _, p := range payloads {
		binary.BigEndian.PutUint32(header[:], uint32(len(p)))
		buf = append(buf, header[:]...)
		buf = append(buf, p...)
	}
	_, err := t.c.Write(buf)
	if cap(buf) <= 1<<20 {
		*bp = buf
		packBufs.Put(bp)
	}
	if err != nil {
		return t.mapErr(err)
	}
	return nil
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

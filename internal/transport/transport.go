// Package transport defines the message-oriented network abstraction the
// DMPS server and clients speak over, with two interchangeable
// implementations: real TCP (this package) and the simulated in-memory
// network of package netsim. Messages are opaque byte slices; framing and
// delivery order are per-connection FIFO, like TCP.
package transport

import (
	"errors"
	"time"
)

// Errors shared by all transport implementations.
var (
	// ErrClosed is returned by operations on a closed connection or
	// listener.
	ErrClosed = errors.New("transport: closed")
	// ErrTooLarge is returned when a message exceeds MaxMessageSize.
	ErrTooLarge = errors.New("transport: message exceeds size limit")
	// ErrUnknownAddress is returned by Dial for an unreachable address.
	ErrUnknownAddress = errors.New("transport: unknown address")
	// ErrTransient marks an Accept error the listener outlives (out of
	// file descriptors for the moment, say): the caller backs off and
	// accepts again instead of giving the listener up.
	ErrTransient = errors.New("transport: transient")
)

// MaxMessageSize bounds a single framed message (16 MiB), protecting
// against corrupt length prefixes.
const MaxMessageSize = 16 << 20

// Conn is a reliable, ordered, message-oriented connection.
// Send and Recv may be used concurrently with each other; neither may be
// called concurrently with itself.
type Conn interface {
	// Send transmits one message. The caller must not modify the
	// payload after Send returns: the in-memory network enqueues it
	// without copying (one encoded fan-out buffer reaches every
	// recipient), and decoded messages alias their frame.
	Send(payload []byte) error
	// Recv blocks for the next message. It returns ErrClosed once the
	// connection is closed and drained.
	Recv() ([]byte, error)
	// Close tears the connection down, unblocking the peer's Recv.
	// Close is idempotent.
	Close() error
	// LocalAddr and RemoteAddr identify the endpoints.
	LocalAddr() string
	RemoteAddr() string
}

// BatchSender is an optional Conn capability: transmit a run of
// messages as one underlying write (writev-style). A writer that has
// drained its queue hands the whole run over so a deep queue costs one
// syscall per drain, not one per message. Like Send, the payloads must
// not be modified after the call.
type BatchSender interface {
	SendBatch(payloads [][]byte) error
}

// TrySender is an optional Conn capability: write one message only if
// the connection takes it without blocking, so a caller that must not
// block (a fan-out under a lock) can skip the hand-off to a writer
// goroutine while the peer keeps up. TrySend reports false when nothing
// of the message was written — the peer pushes back, or another send is
// under way — and the caller still owns it. true means the connection
// took it. When a socket takes only part of a frame, tail is true as
// well: the connection keeps the unwritten rest, refuses further
// TrySends, and writes the rest ahead of the next Send or SendBatch; the
// caller must see to it that one follows, from a goroutine that may
// block (an empty SendAll writes just the rest). Like Send, the payload
// must not be modified after the call.
type TrySender interface {
	TrySend(payload []byte) (ok, tail bool)
}

// SendAll transmits every payload over conn in order, as one batched
// write when the connection supports it and one Send per message
// otherwise. The first error aborts the rest.
func SendAll(conn Conn, payloads [][]byte) error {
	if bs, ok := conn.(BatchSender); ok {
		return bs.SendBatch(payloads)
	}
	for _, p := range payloads {
		if err := conn.Send(p); err != nil {
			return err
		}
	}
	return nil
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close stops accepting; blocked Accept calls return ErrClosed.
	Close() error
	// Addr is the listen address.
	Addr() string
}

// AcceptDelay is the wait before accepting again after a transient
// Accept error, given the wait before it (zero after a success): 5 ms,
// doubling up to 1 s, as net/http's Server backs off.
func AcceptDelay(prev time.Duration) time.Duration {
	const first, most = 5 * time.Millisecond, time.Second
	if prev < first {
		return first
	}
	return min(2*prev, most)
}

// Network creates listeners and outbound connections.
type Network interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

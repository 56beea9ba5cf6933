// Package netsim is an in-memory implementation of transport.Network with
// a configurable link model: per-host-pair one-way delay, jitter, loss and
// partitions. It stands in for the campus LAN / Internet between the
// paper's client sites (see the DESIGN.md substitution table) while
// keeping tests fast and deterministic (seeded jitter).
package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dmps/internal/transport"
)

// LinkConfig shapes traffic between two hosts.
type LinkConfig struct {
	// Delay is the fixed one-way latency.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter].
	Jitter time.Duration
	// Loss is the probability in [0, 1] that a message is silently
	// dropped.
	Loss float64
}

// Net is a simulated network. It is safe for concurrent use.
type Net struct {
	mu         sync.Mutex
	rng        *rand.Rand
	listeners  map[string]*listener
	links      map[[2]string]LinkConfig
	partitions map[[2]string]bool
	stalls     map[[2]string]chan struct{}
	defaultCfg LinkConfig
}

var _ transport.Network = (*Net)(nil)

// New returns a simulated network with no default delay. Jitter and loss
// draw from a private RNG seeded with seed.
func New(seed int64) *Net {
	return &Net{
		rng:        rand.New(rand.NewSource(seed)),
		listeners:  make(map[string]*listener),
		links:      make(map[[2]string]LinkConfig),
		partitions: make(map[[2]string]bool),
		stalls:     make(map[[2]string]chan struct{}),
	}
}

// Host extracts the host part of an address ("host:port" → "host").
func Host(addr string) string {
	if i := strings.IndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetDefaultLink sets the config for host pairs without a specific link.
func (n *Net) SetDefaultLink(cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultCfg = cfg
}

// SetLink configures the link between two hosts (both directions).
func (n *Net) SetLink(hostA, hostB string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[pairKey(hostA, hostB)] = cfg
}

// Partition cuts (or heals) connectivity between two hosts. While
// partitioned every message between them is dropped.
func (n *Net) Partition(hostA, hostB string, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cut {
		n.partitions[pairKey(hostA, hostB)] = true
	} else {
		delete(n.partitions, pairKey(hostA, hostB))
	}
}

func (n *Net) linkFor(a, b string) LinkConfig {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cfg, ok := n.links[pairKey(a, b)]; ok {
		return cfg
	}
	return n.defaultCfg
}

func (n *Net) partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitions[pairKey(a, b)]
}

// Stall freezes (or releases) sends between two hosts: while stalled,
// Send blocks until the stall is lifted or the sending connection
// closes. It is the deterministic stand-in for a peer that stops
// reading until the sender's kernel socket buffer fills — the
// slow-consumer scenario the server's bounded per-session queues exist
// for. (Partition drops silently; Stall blocks, like real TCP
// backpressure.)
func (n *Net) Stall(hostA, hostB string, stall bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := pairKey(hostA, hostB)
	gate, stalled := n.stalls[key]
	switch {
	case stall && !stalled:
		n.stalls[key] = make(chan struct{})
	case !stall && stalled:
		close(gate)
		delete(n.stalls, key)
	}
}

// stallGate returns the release channel for a stalled pair (nil when
// not stalled).
func (n *Net) stallGate(a, b string) chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stalls[pairKey(a, b)]
}

// sample draws the delivery delay and loss verdict for one message.
func (n *Net) sample(cfg LinkConfig) (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delay := cfg.Delay
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter) + 1))
	}
	lost := cfg.Loss > 0 && n.rng.Float64() < cfg.Loss
	return delay, lost
}

// Listen implements transport.Network.
func (n *Net) Listen(addr string) (transport.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("netsim: address %q in use (%w)", addr, transport.ErrUnknownAddress)
	}
	l := &listener{net: n, addr: addr, backlog: make(chan *conn, 64)}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements transport.Network.
func (n *Net) Dial(addr string) (transport.Conn, error) {
	return n.DialFrom("client", addr)
}

// From returns a transport.Network whose outbound connections originate
// at the named simulated host, so per-host link configs, partitions and
// stalls apply. Listen is unchanged.
func (n *Net) From(host string) transport.Network {
	return hostNetwork{net: n, host: host}
}

type hostNetwork struct {
	net  *Net
	host string
}

func (h hostNetwork) Dial(addr string) (transport.Conn, error) {
	return h.net.DialFrom(h.host, addr)
}

func (h hostNetwork) Listen(addr string) (transport.Listener, error) {
	return h.net.Listen(addr)
}

// DialFrom dials addr with an explicit local host name, so per-host link
// configs apply. Plain Dial uses the host name "client".
func (n *Net) DialFrom(localHost, addr string) (transport.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: %q: %w", addr, transport.ErrUnknownAddress)
	}
	client, server := newPair(n, localHost, addr)
	// Close closes the backlog under closeMu; holding it here keeps a
	// dial that raced the close from sending on a closed channel.
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("netsim: %q: %w", addr, transport.ErrUnknownAddress)
	}
	select {
	case l.backlog <- server:
		return client, nil
	default:
		return nil, fmt.Errorf("netsim: %q backlog full (%w)", addr, transport.ErrUnknownAddress)
	}
}

type listener struct {
	net     *Net
	addr    string
	backlog chan *conn
	closeMu sync.Mutex
	closed  bool
}

func (l *listener) Accept() (transport.Conn, error) {
	c, ok := <-l.backlog
	if !ok {
		return nil, transport.ErrClosed
	}
	return c, nil
}

func (l *listener) Close() error {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr)
	l.net.mu.Unlock()
	close(l.backlog)
	return nil
}

func (l *listener) Addr() string { return l.addr }

// item is one in-flight message.
type item struct {
	payload   []byte
	deliverAt time.Time
}

// mailbox is a FIFO of delayed messages with close semantics: readers
// drain remaining items after close, then get ErrClosed.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// items plus head form a FIFO that reuses its backing array: pop
	// advances head instead of reslicing (a bare items[1:] strands the
	// array start, so every push past cap would reallocate), and push
	// compacts the live tail down before growing. Steady-state traffic
	// allocates nothing per message.
	items  []item
	head   int
	closed bool
	// lastAt enforces FIFO: a later message never overtakes an earlier
	// one even if it sampled a smaller jitter.
	lastAt time.Time
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(payload []byte, deliverAt time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if deliverAt.Before(m.lastAt) {
		deliverAt = m.lastAt
	}
	m.lastAt = deliverAt
	if m.head > 0 && len(m.items) == cap(m.items) {
		// About to grow: slide the live tail down and reuse the array.
		n := copy(m.items, m.items[m.head:])
		clearTail := m.items[n:len(m.items)]
		for i := range clearTail {
			clearTail[i] = item{}
		}
		m.items = m.items[:n]
		m.head = 0
	}
	// The payload is enqueued without copying: the transport contract
	// says a buffer handed to Send is immutable from then on, so one
	// encoded fan-out buffer can sit in every recipient's mailbox.
	m.items = append(m.items, item{payload: payload, deliverAt: deliverAt})
	m.cond.Broadcast()
}

func (m *mailbox) pop() ([]byte, error) {
	m.mu.Lock()
	for {
		if m.head < len(m.items) {
			head := m.items[m.head]
			now := time.Now()
			if wait := head.deliverAt.Sub(now); wait > 0 {
				// Release the lock while the message is "in flight".
				m.mu.Unlock()
				time.Sleep(wait)
				m.mu.Lock()
				continue
			}
			m.items[m.head] = item{} // release the payload reference
			m.head++
			if m.head == len(m.items) {
				m.items = m.items[:0]
				m.head = 0
			}
			m.mu.Unlock()
			return head.payload, nil
		}
		if m.closed {
			m.mu.Unlock()
			return nil, transport.ErrClosed
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// conn is one endpoint of a simulated connection.
type conn struct {
	net        *Net
	localHost  string
	remoteHost string
	localAddr  string
	remoteAddr string
	inbox      *mailbox
	peer       *conn
	closeOnce  sync.Once
	done       chan struct{}
	dropMu     sync.Mutex
	dropped    bool
}

var (
	_ transport.Conn      = (*conn)(nil)
	_ transport.TrySender = (*conn)(nil)
)

func newPair(n *Net, clientHost, serverAddr string) (clientEnd, serverEnd *conn) {
	serverHost := Host(serverAddr)
	clientAddr := clientHost + ":ephemeral"
	c := &conn{
		net: n, localHost: clientHost, remoteHost: serverHost,
		localAddr: clientAddr, remoteAddr: serverAddr,
		inbox: newMailbox(), done: make(chan struct{}),
	}
	s := &conn{
		net: n, localHost: serverHost, remoteHost: clientHost,
		localAddr: serverAddr, remoteAddr: clientAddr,
		inbox: newMailbox(), done: make(chan struct{}),
	}
	c.peer, s.peer = s, c
	return c, s
}

// Send implements transport.Conn.
func (c *conn) Send(payload []byte) error {
	if len(payload) > transport.MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", transport.ErrTooLarge, len(payload))
	}
	// A stalled link blocks the sender (TCP-buffer-full semantics) until
	// released or this endpoint closes.
	for {
		gate := c.net.stallGate(c.localHost, c.remoteHost)
		if gate == nil {
			break
		}
		select {
		case <-gate:
		case <-c.done:
			return transport.ErrClosed
		}
	}
	select {
	case <-c.peer.done:
		return transport.ErrClosed // as a TCP write fails once the other end has closed
	default:
	}
	c.deliver(payload)
	return nil
}

// TrySend implements transport.TrySender: a stalled link takes nothing
// (a full socket buffer's EAGAIN), any other link delivers as Send does.
// The link model never half-takes a message, so tail is always false.
func (c *conn) TrySend(payload []byte) (ok, tail bool) {
	if len(payload) > transport.MaxMessageSize || c.net.stallGate(c.localHost, c.remoteHost) != nil {
		return false, false
	}
	c.deliver(payload)
	return true, false
}

// deliver puts one message on the link past the stall gate: dropped by
// a crashed endpoint, a partition or loss, delayed otherwise.
func (c *conn) deliver(payload []byte) {
	c.dropMu.Lock()
	dropped := c.dropped
	c.dropMu.Unlock()
	if dropped {
		// A crashed host's packets go nowhere, but Send does not error:
		// the application only notices via silence (heartbeat timeout).
		return
	}
	if c.net.partitioned(c.localHost, c.remoteHost) {
		return // silently dropped, like a partition
	}
	cfg := c.net.linkFor(c.localHost, c.remoteHost)
	delay, lost := c.net.sample(cfg)
	if lost {
		return
	}
	c.peer.inbox.push(payload, time.Now().Add(delay))
}

// Recv implements transport.Conn.
func (c *conn) Recv() ([]byte, error) { return c.inbox.pop() }

// Close implements transport.Conn: both directions shut down; the peer
// drains in-flight messages then sees ErrClosed.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.inbox.close()
		c.peer.inbox.close()
	})
	return nil
}

// Drop simulates a crash or cable pull on this endpoint: outbound messages
// vanish and nothing signals the peer. Detection is left to heartbeats,
// exactly the scenario of the paper's Figure 3(c) red status light.
func (c *conn) Drop() {
	c.dropMu.Lock()
	c.dropped = true
	c.dropMu.Unlock()
}

// Drop exposes the crash simulation on a transport.Conn created by this
// package; it reports false when the conn is not a netsim conn.
func Drop(tc transport.Conn) bool {
	c, ok := tc.(*conn)
	if !ok {
		return false
	}
	c.Drop()
	return true
}

func (c *conn) LocalAddr() string  { return c.localAddr }
func (c *conn) RemoteAddr() string { return c.remoteAddr }

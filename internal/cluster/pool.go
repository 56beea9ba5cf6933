package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// peerQueueCap bounds each peer link's outbound queue. Forwards are
// best-effort by design — a lost replica narrows takeover reach, a lost
// invitation is re-derived from the registry on the next member-log
// backfill — so overflow drops (counted) rather than blocking the
// group's append path on a slow peer.
const peerQueueCap = 1024

// Dial-retry and circuit-breaker tuning. A fresh link retries its dial
// with exponential backoff before giving up (queued forwards wait in
// the link's buffer, so a peer restarting under the sender loses
// nothing); only when every attempt fails does the peer's circuit open,
// and sends during the cooloff fast-fail as counted drops instead of
// burning a dial each. The first Send after the cooloff is the
// half-open probe: it re-creates the link and the retry ladder runs
// again.
const (
	dialAttempts    = 6
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffMax  = 160 * time.Millisecond
	circuitCooloff  = time.Second
)

// Pool is the pooled inter-node transport: one connection per peer
// node, dialed lazily, drained by a dedicated writer goroutine per
// peer. Sends never block the caller: a full queue or a dead peer drops
// the forward (counted in Drops), and the next send after a connection
// failure re-dials. Pool is safe for concurrent use.
type Pool struct {
	network transport.Network
	mu      sync.Mutex
	peers   map[string]*peerLink
	// stats persists per-peer send/drop counters across link
	// retirements: a link that dies and re-dials keeps accumulating
	// into the same addr's counters, so the metrics endpoint reads a
	// peer's whole history, not its current connection's.
	stats  map[string]*peerStat
	closed bool
	drops  atomic.Int64
	sent   atomic.Int64
	wg     sync.WaitGroup
}

// PeerStats is one peer's cumulative forward counters.
type PeerStats struct {
	// Sent counts forwards queued to this peer, and Bytes their bytes.
	Sent  int64
	Bytes int64
	// Drops counts forwards dropped for this peer (full queue, dead
	// link backlog, dial failure, open circuit).
	Drops int64
	// Redials counts dial retries for this peer — every dial attempt
	// beyond a link's first. A non-zero Redials with a quiet CircuitOpen
	// reads as "flapping but reachable"; a climbing Redials is the
	// backoff ladder running.
	Redials int64
	// CircuitOpen reports whether the peer's circuit is currently open:
	// every dial attempt of the last link failed, and sends fast-fail
	// until the cooloff expires (after which the next send half-opens
	// the circuit with a fresh dial).
	CircuitOpen bool
}

// peerStat is the live, atomically updated form of PeerStats.
type peerStat struct {
	sent    atomic.Int64
	bytes   atomic.Int64
	drops   atomic.Int64
	redials atomic.Int64
	// circuitUntil is the unix-nano deadline of an open circuit (0 =
	// closed); sends before it fast-fail without a link.
	circuitUntil atomic.Int64
}

type peerLink struct {
	addr  string
	queue chan []byte
	down  chan struct{}
	once  sync.Once
	stat  *peerStat
}

// NewPool returns a pool that dials peers over the given network.
func NewPool(network transport.Network) *Pool {
	return &Pool{network: network, peers: make(map[string]*peerLink), stats: make(map[string]*peerStat)}
}

// WrapForward frames a node-to-node forward for the peer link
// (protocol.EncodeForward), nil when the body cannot be encoded.
func WrapForward(body protocol.ForwardBody) []byte {
	wire, err := protocol.EncodeForward(body)
	if err != nil {
		return nil
	}
	return wire
}

// Send queues pre-encoded wire bytes for the peer at addr, dialing the
// link on first use. It reports false when the forward was dropped (a
// nil wire, a closed pool, or a full queue).
func (p *Pool) Send(addr string, wire []byte) bool {
	if wire == nil {
		return false
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	link, ok := p.peers[addr]
	if !ok {
		st := p.stats[addr]
		if st == nil {
			st = &peerStat{}
			p.stats[addr] = st
		}
		if until := st.circuitUntil.Load(); until > time.Now().UnixNano() {
			// Circuit open: the last link exhausted its dial ladder.
			// Fast-fail instead of re-dialing on every send.
			p.mu.Unlock()
			p.drops.Add(1)
			st.drops.Add(1)
			return false
		}
		st.circuitUntil.Store(0) // half-open: this link is the probe
		link = &peerLink{addr: addr, queue: make(chan []byte, peerQueueCap), down: make(chan struct{}), stat: st}
		p.peers[addr] = link
		p.wg.Add(1)
		go p.drain(link)
	}
	p.mu.Unlock()
	select {
	case link.queue <- wire:
		p.sent.Add(1)
		link.stat.sent.Add(1)
		link.stat.bytes.Add(int64(len(wire)))
		return true
	default:
		p.drops.Add(1)
		link.stat.drops.Add(1)
		return false
	}
}

// drain is the per-peer writer: it dials (with the bounded backoff
// ladder) and pushes queued forwards until the connection fails or the
// pool closes. While the ladder runs, queued forwards wait in the
// link's buffer — a peer restarting under the sender loses nothing.
// When every dial attempt fails the peer's circuit opens and the link
// is retired (backlog counted as drops); a mid-stream send failure just
// retires the link, and the next Send re-dials.
func (p *Pool) drain(link *peerLink) {
	defer p.wg.Done()
	conn := p.dialWithBackoff(link)
	if conn == nil {
		link.stat.circuitUntil.Store(time.Now().Add(circuitCooloff).UnixNano())
		p.retire(link)
		return
	}
	defer conn.Close()
	for {
		select {
		case wire := <-link.queue:
			if err := conn.Send(wire); err != nil {
				p.retire(link)
				return
			}
		case <-link.down:
			return
		}
	}
}

// dialWithBackoff runs the link's dial ladder: dialAttempts tries with
// exponential backoff between them, counting every retry into the
// peer's Redials. It returns nil when every attempt failed or the link
// went down while waiting.
func (p *Pool) dialWithBackoff(link *peerLink) transport.Conn {
	backoff := dialBackoffBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			link.stat.redials.Add(1)
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-link.down:
				timer.Stop()
				return nil
			}
			if backoff *= 2; backoff > dialBackoffMax {
				backoff = dialBackoffMax
			}
		}
		conn, err := p.network.Dial(link.addr)
		if err == nil {
			return conn
		}
	}
	return nil
}

// retire removes a failed link so future sends re-dial, and counts its
// queued backlog as drops.
func (p *Pool) retire(link *peerLink) {
	link.once.Do(func() { close(link.down) })
	p.mu.Lock()
	if p.peers[link.addr] == link {
		delete(p.peers, link.addr)
	}
	p.mu.Unlock()
	for {
		select {
		case <-link.queue:
			p.drops.Add(1)
			link.stat.drops.Add(1)
		default:
			return
		}
	}
}

// Stats reports forwards sent and dropped since the pool started.
func (p *Pool) Stats() (sent, drops int64) { return p.sent.Load(), p.drops.Load() }

// PeerStats snapshots the per-peer forward counters, keyed by peer
// address. Counters persist across link retirement and re-dial, so a
// flapping peer's history accumulates rather than resetting.
func (p *Pool) PeerStats() map[string]PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PeerStats, len(p.stats))
	now := time.Now().UnixNano()
	for addr, st := range p.stats {
		out[addr] = PeerStats{
			Sent:        st.sent.Load(),
			Bytes:       st.bytes.Load(),
			Drops:       st.drops.Load(),
			Redials:     st.redials.Load(),
			CircuitOpen: st.circuitUntil.Load() > now,
		}
	}
	return out
}

// Close tears every peer link down and waits for the writers.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	links := make([]*peerLink, 0, len(p.peers))
	for _, l := range p.peers {
		links = append(links, l)
	}
	p.peers = make(map[string]*peerLink)
	p.mu.Unlock()
	for _, l := range links {
		l.once.Do(func() { close(l.down) })
	}
	p.wg.Wait()
}

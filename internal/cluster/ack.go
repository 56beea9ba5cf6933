package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// Ack-table tuning. A tracked forward waits ackTimeoutBase before its
// first resend, doubling per attempt up to ackTimeoutMax; after
// ackMaxAttempts unanswered sends the entry is dropped and counted
// lost (the peer is presumed dead — the router's failover machinery,
// not the ack table, handles that). The table itself is bounded:
// admitting an entry past ackTableCap evicts the oldest in-flight
// forward as lost, so a long peer outage degrades replication
// coverage instead of growing memory without bound.
const (
	ackTableCap    = 4096
	ackTimeoutBase = 200 * time.Millisecond
	ackTimeoutMax  = 2 * time.Second
	ackMaxAttempts = 5
)

// Resend is one overdue replication forward the ack table hands back
// for another send: the peer still pending and the original wire bytes
// (the receiver dedups by GSeq, so at-least-once delivery is safe).
type Resend struct {
	// Peer is the peer address whose ack is overdue.
	Peer string
	// Wire is the forward's original wire bytes, resent verbatim.
	Wire []byte
}

// inflight is one tracked forward: the wire bytes, the peers whose
// acks are still pending, and the resend schedule.
type inflight struct {
	id       int64
	wire     []byte
	pending  map[string]bool
	sentAt   time.Time
	attempts int
	nextDue  time.Time
	// tid is the forward's sampled trace ID (0 = untraced); when set,
	// the full ack fires the traceAck callback with the round trip.
	tid uint64
}

// AckTable tracks replication forwards awaiting peer acknowledgement:
// the sender registers each identified forward with the peer list it
// was shipped to, receivers echo ForwardAck, and a periodic Due sweep
// hands back overdue entries for resend with exponential backoff. The
// table is bounded (oldest in-flight evicted as lost) and safe for
// concurrent use. It takes only its own lock, so registration may run
// inside a log-append deliver callback.
type AckTable struct {
	mu      sync.Mutex
	entries map[int64]*inflight
	order   []int64 // insertion order, for cap eviction
	nextID  atomic.Int64
	resends atomic.Int64
	lost    atomic.Int64
	acked   atomic.Int64
	// observe, when set, receives the ack round-trip in seconds each
	// time an entry fully acks — the replication ack-latency histogram.
	observe func(seconds float64)
	// traceAck, when set, receives each fully-acked traced forward's
	// trace ID, send time and round trip — the repl_ack span hook the
	// tracing plane installs without this package importing it.
	traceAck func(tid uint64, sentAt time.Time, rtt time.Duration)
}

// NewAckTable returns an empty ack table. observe (optional) receives
// each fully-acked forward's round-trip latency in seconds.
func NewAckTable(observe func(seconds float64)) *AckTable {
	t := &AckTable{entries: make(map[int64]*inflight), observe: observe}
	// IDs start at the wall clock so that a restarted sender's IDs carry
	// on above its previous life's: receivers that order a sender's
	// forwards by ID (ReplicaStore.Apply) must not take the new
	// process's first forwards for old ones.
	t.nextID.Store(time.Now().UnixNano())
	return t
}

// NextID mints the next forward ID: per-sender monotonic, across
// restarts too, and never 0, the fire-and-forget sentinel.
func (t *AckTable) NextID() int64 { return t.nextID.Add(1) }

// OnTraceAck installs the callback fired (outside the table's lock)
// when a traced forward fully acks — the tracing plane's repl_ack span
// source. Install before traffic flows; the last installation wins.
func (t *AckTable) OnTraceAck(fn func(tid uint64, sentAt time.Time, rtt time.Duration)) {
	t.mu.Lock()
	t.traceAck = fn
	t.mu.Unlock()
}

// TrackTrace attaches a sampled trace ID to an already-tracked forward,
// so its eventual full ack records a repl_ack span. A no-op for IDs the
// table no longer holds (already acked, or evicted).
func (t *AckTable) TrackTrace(id int64, tid uint64) {
	if id == 0 || tid == 0 {
		return
	}
	t.mu.Lock()
	if e, ok := t.entries[id]; ok {
		e.tid = tid
	}
	t.mu.Unlock()
}

// Track registers a forward shipped to the given peers. When the table
// is full the oldest in-flight entry is evicted and counted lost.
func (t *AckTable) Track(id int64, peers []string, wire []byte) {
	if id == 0 || len(peers) == 0 {
		return
	}
	now := time.Now()
	pending := make(map[string]bool, len(peers))
	for _, p := range peers {
		pending[p] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.order) >= ackTableCap {
		oldest := t.order[0]
		t.order = t.order[1:]
		if _, ok := t.entries[oldest]; ok {
			delete(t.entries, oldest)
			t.lost.Add(1)
		}
	}
	t.entries[id] = &inflight{
		id: id, wire: wire, pending: pending,
		sentAt: now, nextDue: now.Add(ackTimeoutBase),
	}
	t.order = append(t.order, id)
}

// Ack records peer's acknowledgement of forward id. When the last
// pending peer acks, the entry clears and its round trip is observed.
func (t *AckTable) Ack(peer string, id int64) {
	t.mu.Lock()
	e, ok := t.entries[id]
	if !ok || !e.pending[peer] {
		t.mu.Unlock()
		return
	}
	delete(e.pending, peer)
	done := len(e.pending) == 0
	var rtt time.Duration
	traceAck := t.traceAck
	if done {
		delete(t.entries, id)
		rtt = time.Since(e.sentAt)
	}
	t.mu.Unlock()
	if done {
		t.acked.Add(1)
		if t.observe != nil {
			t.observe(rtt.Seconds())
		}
		if e.tid != 0 && traceAck != nil {
			traceAck(e.tid, e.sentAt, rtt)
		}
	}
}

// Due sweeps the table for overdue entries: each one past its resend
// deadline is handed back (once per still-pending peer) with its
// backoff doubled, and entries past ackMaxAttempts are dropped and
// counted lost. The caller resends each Resend over the pool.
func (t *AckTable) Due(now time.Time) []Resend {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Resend
	for id, e := range t.entries {
		if now.Before(e.nextDue) {
			continue
		}
		e.attempts++
		if e.attempts >= ackMaxAttempts {
			delete(t.entries, id)
			t.lost.Add(1)
			continue
		}
		backoff := ackTimeoutBase << e.attempts
		if backoff > ackTimeoutMax {
			backoff = ackTimeoutMax
		}
		e.nextDue = now.Add(backoff)
		for peer := range e.pending {
			out = append(out, Resend{Peer: peer, Wire: e.wire})
			t.resends.Add(1)
		}
	}
	return out
}

// Pending returns the number of in-flight (not yet fully acked)
// forwards — the unacked-append gauge.
func (t *AckTable) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Resends returns the cumulative resend count.
func (t *AckTable) Resends() int64 { return t.resends.Load() }

// Lost returns the number of forwards abandoned unacked (resend budget
// exhausted or table eviction).
func (t *AckTable) Lost() int64 { return t.lost.Load() }

// Acked returns the number of forwards fully acknowledged.
func (t *AckTable) Acked() int64 { return t.acked.Load() }

package cluster

import (
	"sync"
	"time"

	"dmps/internal/grouplog"
)

// A (peer, key) pair that stays behind is repaired once it has been
// behind for ackTimeoutBase, then at intervals doubling up to
// ackTimeoutMax while its head does not move.
const (
	ackTimeoutBase = 200 * time.Millisecond
	ackTimeoutMax  = 2 * time.Second
)

// HeadTable is an owner's view of its replicas, per (peer, key): the
// highest event GSeq shipped, the head last acked — the highest GSeq
// the peer holds with none missing below, as Raft's matchIndex — and
// the package or drop record not yet acked. It keeps nothing shipped: a
// pair that stays behind is repaired from the owner's live state. It
// takes only its own lock, so Shipped may run inside a log append.
type HeadTable struct {
	mu    sync.Mutex
	pairs map[[2]string]*replicaHead
	// observe receives a timed event's ack round trip in seconds, and
	// traced a sampled one's (the repl_ack span). Either may be nil.
	observe func(seconds float64)
	traced  func(tid uint64, sentAt time.Time, rtt time.Duration)
}

type replicaHead struct {
	sent, acked int64
	pkg         int64 // the package or drop record's ID awaiting its ack
	due         time.Time
	wait        time.Duration // the interval after the next repair
	// One event at a time is timed to its ack: its GSeq, ship time and
	// sampled trace (0: none).
	probe  int64
	sentAt time.Time
	tid    uint64
}

func (h *replicaHead) behind() bool { return h.acked < h.sent || h.pkg != 0 }

// Repair is a pair Due hands back: a peer behind on a key.
type Repair struct{ Peer, Key string }

// NewHeadTable returns an empty head table with its measurement hooks.
func NewHeadTable(observe func(seconds float64), traced func(tid uint64, sentAt time.Time, rtt time.Duration)) *HeadTable {
	return &HeadTable{pairs: make(map[[2]string]*replicaHead), observe: observe, traced: traced}
}

// Shipped notes a record sent to peer: an event raises the shipped
// GSeq, a package or drop record (id) awaits its ack, and a drop also
// empties the pair — the member's log is gone on both sides. tid names
// a sampled event's trace (0: none).
func (t *HeadTable) Shipped(peer string, rec grouplog.WALRecord, id int64, tid uint64, now time.Time) {
	k := [2]string{peer, rec.PartitionKey()}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.pairs[k]
	if h == nil {
		h = &replicaHead{}
		t.pairs[k] = h
	}
	if !h.behind() {
		h.due, h.wait = now.Add(ackTimeoutBase), ackTimeoutBase
	}
	switch rec.Kind {
	case grouplog.WALEvent:
		h.sent = max(h.sent, rec.GSeq)
		if h.probe == 0 || (tid != 0 && h.tid == 0) {
			h.probe, h.sentAt, h.tid = rec.GSeq, now, tid
		}
	case grouplog.WALMemberDrop:
		h.sent, h.acked, h.probe, h.pkg = 0, 0, 0, id
	default:
		h.pkg = id
	}
}

// Ack takes peer's answer for key: its head and the forward's ID. A
// head that moved restarts the pair's repair interval; a pair caught up
// with nothing shipped is forgotten.
func (t *HeadTable) Ack(peer, key string, head, id int64, now time.Time) {
	k := [2]string{peer, key}
	t.mu.Lock()
	h := t.pairs[k]
	if h == nil {
		t.mu.Unlock()
		return
	}
	if id != 0 && id == h.pkg {
		h.pkg, h.sent = 0, max(h.sent, head) // a package states a log part too
	}
	if head != h.acked {
		h.acked, h.due, h.wait = head, now.Add(ackTimeoutBase), ackTimeoutBase
	}
	timed, tid, sentAt := h.probe != 0 && head >= h.probe, h.tid, h.sentAt
	if timed {
		h.probe = 0
	}
	if !h.behind() && h.sent == 0 {
		delete(t.pairs, k)
	}
	t.mu.Unlock()
	if timed && t.observe != nil {
		t.observe(now.Sub(sentAt).Seconds())
	}
	if timed && tid != 0 && t.traced != nil {
		t.traced(tid, sentAt, now.Sub(sentAt))
	}
}

// Due hands back each pair behind and due for repair, its next repair
// twice the interval later; a peer skip names is left due.
func (t *HeadTable) Due(now time.Time, skip func(peer string) bool) []Repair {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Repair
	for k, h := range t.pairs {
		if h.behind() && !now.Before(h.due) && !skip(k[0]) {
			out = append(out, Repair{Peer: k[0], Key: k[1]})
			h.wait = min(2*h.wait, ackTimeoutMax)
			h.due = now.Add(h.wait)
		}
	}
	return out
}

// Forget drops the pairs of a key this node no longer serves.
func (t *HeadTable) Forget(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.pairs {
		if k[1] == key {
			delete(t.pairs, k)
		}
	}
}

// Pending counts what the replicas have not acked, over all pairs: the
// events past each acked head, and each package or drop record.
func (t *HeadTable) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, h := range t.pairs {
		n += int(max(h.sent-h.acked, 0))
		if h.pkg != 0 {
			n++
		}
	}
	return n
}

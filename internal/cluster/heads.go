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
// highest GSeq shipped — an event's or directory entry's, the one a
// package covers, or a drop's — and the head last acked, the highest
// GSeq the peer holds with none missing below, as Raft's matchIndex. A
// pair is out of step while the two differ: behind, or ahead — the peer
// holds GSeqs this node never shipped it, another history of the key (a
// life of this node without its journal, another node's adoption). It
// keeps nothing shipped: a pair out of step is repaired from the owner's
// live state. A pair in step and idle for the base interval is
// forgotten, and Shipped makes it again. It takes only its own lock, so
// Shipped may run inside a log append.
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
	dropped     bool // the last record shipped was the key's drop
	due         time.Time
	wait        time.Duration // the interval after the next repair
	// One event at a time is timed to its ack: its GSeq, ship time and
	// sampled trace (0: none).
	probe  int64
	sentAt time.Time
	tid    uint64
}

func (h *replicaHead) behind() bool { return h.acked != h.sent }

// Repair is a pair Due hands back: a peer out of step on a key, the
// highest GSeq shipped to it there (a dropped key's drop GSeq) and the
// head it last acked.
type Repair struct {
	Peer, Key   string
	Sent, Acked int64
}

// NewHeadTable returns an empty head table with its measurement hooks.
func NewHeadTable(observe func(seconds float64), traced func(tid uint64, sentAt time.Time, rtt time.Duration)) *HeadTable {
	return &HeadTable{pairs: make(map[[2]string]*replicaHead), observe: observe, traced: traced}
}

// Shipped notes a record sent to peer: it raises the shipped GSeq, and
// a drop marks the pair to be forgotten once acked — the member's log is
// gone on both sides. tid names a sampled event's trace (0: none).
func (t *HeadTable) Shipped(peer string, rec grouplog.WALRecord, tid uint64, now time.Time) {
	k := [2]string{peer, rec.PartitionKey()}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.pairs[k]
	if h == nil {
		// A pair is forgotten in step: until its ack says otherwise, the
		// peer holds what came before this record.
		h = &replicaHead{acked: rec.GSeq - 1}
		t.pairs[k] = h
	}
	if !h.behind() {
		h.due, h.wait = now.Add(ackTimeoutBase), ackTimeoutBase
	}
	h.sent, h.dropped = max(h.sent, rec.GSeq), rec.Kind == grouplog.WALMemberDrop
	if rec.Kind == grouplog.WALEvent && (h.probe == 0 || (tid != 0 && h.tid == 0)) {
		h.probe, h.sentAt, h.tid = rec.GSeq, now, tid
	}
}

// Ack takes peer's answer for key: its head. A head that moved restarts
// the pair's repair interval; a dropped key's pair in step is forgotten.
func (t *HeadTable) Ack(peer, key string, head int64, now time.Time) {
	k := [2]string{peer, key}
	t.mu.Lock()
	h := t.pairs[k]
	if h == nil {
		t.mu.Unlock()
		return
	}
	if head != h.acked {
		h.acked, h.due, h.wait = head, now.Add(ackTimeoutBase), ackTimeoutBase
	}
	timed, tid, sentAt := h.probe != 0 && head >= h.probe, h.tid, h.sentAt
	if timed {
		h.probe = 0
	}
	if !h.behind() && h.dropped {
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

// Due hands back each pair out of step and due for repair, its next
// repair twice the interval later; a peer skip names is left due. A pair
// in step and due is forgotten.
func (t *HeadTable) Due(now time.Time, skip func(peer string) bool) []Repair {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Repair
	for k, h := range t.pairs {
		switch {
		case now.Before(h.due):
		case !h.behind():
			delete(t.pairs, k)
		case !skip(k[0]):
			out = append(out, Repair{Peer: k[0], Key: k[1], Sent: h.sent, Acked: h.acked})
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
// GSeqs shipped past each acked head, and one package for each pair
// ahead.
func (t *HeadTable) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, h := range t.pairs {
		if h.behind() {
			n += int(max(h.sent-h.acked, 1))
		}
	}
	return n
}

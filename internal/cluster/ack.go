package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/grouplog"
)

// AckTable mints a sender's forward IDs. Track and Ack serve only the
// layer benchmark: they price a forward's bookkeeping by the head
// table's per-event work, the forward's ID standing for its GSeq.
type AckTable struct {
	nextID  atomic.Int64
	observe func(seconds float64)
	once    sync.Once
	heads   *HeadTable // the benchmark's, made by the first Track or Ack
}

// NewAckTable returns an empty ack table. observe (optional) receives
// each ack's round trip in seconds.
func NewAckTable(observe func(seconds float64)) *AckTable {
	t := &AckTable{observe: observe}
	// IDs start at the wall clock so that a restarted sender's IDs carry
	// on above its previous life's: receivers that order a sender's
	// forwards by ID (ReplicaStore.Apply) must not take the new
	// process's first forwards for old ones.
	t.nextID.Store(time.Now().UnixNano())
	return t
}

// NextID mints the next forward ID: per-sender monotonic, across
// restarts too, and never 0, the unordered sentinel.
func (t *AckTable) NextID() int64 { return t.nextID.Add(1) }

// Track notes forward id shipped to peers. The wire is not kept.
func (t *AckTable) Track(id int64, peers []string, _ []byte) {
	now := time.Now()
	for _, p := range peers {
		t.bench().Shipped(p, grouplog.WALRecord{Kind: grouplog.WALEvent, GSeq: id}, 0, 0, now)
	}
}

// Ack records peer's acknowledgement of forward id.
func (t *AckTable) Ack(peer string, id int64) { t.bench().Ack(peer, "", id, 0, time.Now()) }

func (t *AckTable) bench() *HeadTable {
	t.once.Do(func() { t.heads = NewHeadTable(t.observe, nil) })
	return t.heads
}

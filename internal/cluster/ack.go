package cluster

import (
	"sync/atomic"
	"time"

	"dmps/internal/grouplog"
)

// AckTable serves only the layer benchmark: it prices a forward's
// bookkeeping by the head table's per-event work, a minted ID standing
// for the forward's GSeq.
type AckTable struct {
	nextID atomic.Int64
	heads  *HeadTable
}

// NewAckTable returns an empty ack table. observe (optional) receives
// each ack's round trip in seconds.
func NewAckTable(observe func(seconds float64)) *AckTable {
	return &AckTable{heads: NewHeadTable(observe, nil)}
}

// NextID mints the next forward ID: 1, 2, and so on.
func (t *AckTable) NextID() int64 { return t.nextID.Add(1) }

// Track notes forward id shipped to peers. The wire is not kept.
func (t *AckTable) Track(id int64, peers []string, _ []byte) {
	now := time.Now()
	for _, p := range peers {
		t.heads.Shipped(p, grouplog.WALRecord{Kind: grouplog.WALEvent, GSeq: id}, 0, now)
	}
}

// Ack records peer's acknowledgement of forward id.
func (t *AckTable) Ack(peer string, id int64) { t.heads.Ack(peer, "", id, time.Now()) }

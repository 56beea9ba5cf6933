// Package cluster is the multi-process plane of DMPS: it partitions
// groups across N server processes ("group-partition nodes") behind a
// thin routing tier, reusing the existing wire protocol end-to-end. The
// same FNV-1a hash that stripes state inside a process (internal/shard)
// assigns every group — and every member's home — to a node, so the
// per-group invariants the in-process planes proved (per-group locks,
// per-group event logs, encode-once fan-out) carry across process
// boundaries unchanged: a group's entire state still lives under exactly
// one lock, it is just a lock in one of N processes now.
//
// Three pieces live here. The partition Map is the static-then-
// rebalanceable assignment of hash space to nodes, with a down-set so a
// dead node's partitions fail over to ring successors deterministically
// (which is also where the replication plane put their state). The Pool
// is the pooled inter-node transport: one connection per peer node,
// drained by a writer goroutine, carrying typed TForward messages
// (invitations to home nodes, logged-event replication to successors).
// The Router terminates client connections, consults the map, and
// proxies each session's traffic to the owning nodes — the member's
// home node for cross-cutting state (directory, session token, member
// log, lights), the group's owner for everything group-scoped.
package cluster

import (
	"strings"
	"sync"
)

// fnv1a matches internal/shard's key hash: the cluster partitions by
// the same function that stripes locks in-process, so a group's shard
// affinity and node affinity derive from one number.
func fnv1a(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// HomeKey derives the placement key of a member from their member ID:
// the sanitized-name prefix ("alice" from "alice#7"). Member IDs are
// minted by the home node as sanitized-name + "#" + counter, so every
// node — and the router, hashing the sanitized hello name before any ID
// exists — computes the same home from either form. Members whose names
// sanitize equal share a home node (and its ID counter), which is what
// keeps IDs globally unique across the cluster.
func HomeKey(memberID string) string {
	if i := strings.LastIndexByte(memberID, '#'); i >= 0 {
		return memberID[:i]
	}
	return memberID
}

// Map is the partition map: the ordered node list every cluster piece
// shares, plus the router's down-set. Ownership is primary-first with
// deterministic ring failover: a key's primary is hash(key) mod N, and
// while the primary is marked down the key is served by the next up
// node in ring order — exactly the node the replication plane ships the
// partition's state to, so a failover lands where the replica already
// is. Marking a node up again restores the static assignment
// ("static-then-rebalanceable"). Map is safe for concurrent use.
type Map struct {
	mu      sync.RWMutex
	nodes   []string
	down    []bool
	version int
	epoch   int64
}

// NewMap builds a partition map over the given node addresses, in ring
// order. The order is part of the cluster's identity: every node and
// router must be configured with the same list.
func NewMap(nodes []string) *Map {
	m := &Map{nodes: make([]string, len(nodes)), down: make([]bool, len(nodes))}
	copy(m.nodes, nodes)
	return m
}

// Len returns the node count.
func (m *Map) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.nodes)
}

// Nodes returns a copy of the node address list, in ring order.
func (m *Map) Nodes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, len(m.nodes))
	copy(out, m.nodes)
	return out
}

// Addr returns the address of node idx.
func (m *Map) Addr(idx int) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nodes[idx]
}

// Primary returns the static owner of a key — hash mod N, ignoring the
// down-set. Nodes use it to decide which partitions are natively
// theirs; replication ships a partition's state to the primary's ring
// successor.
func (m *Map) Primary(key string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int(fnv1a(key)) & 0x7fffffff % len(m.nodes)
}

// Successors returns the r distinct nodes after idx in ring order — the
// replication target list of a partition whose primary is idx under
// replication factor r+1. With fewer than r other nodes it returns them
// all (the cluster cannot hold more copies than it has nodes).
func (m *Map) Successors(idx, r int) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.nodes)
	if r > n-1 {
		r = n - 1
	}
	out := make([]int, 0, r)
	for i := 1; i <= r; i++ {
		out = append(out, (idx+i)%n)
	}
	return out
}

// Owner returns the node currently serving a key: the primary, or —
// while the primary is marked down — the first up node after it in ring
// order. With every node down it falls back to the primary (the caller
// will observe the dial failure itself).
func (m *Map) Owner(key string) (idx int, addr string) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.nodes)
	primary := int(fnv1a(key)) & 0x7fffffff % n
	for i := 0; i < n; i++ {
		cand := (primary + i) % n
		if !m.down[cand] {
			return cand, m.nodes[cand]
		}
	}
	return primary, m.nodes[primary]
}

// MarkDown records that a node is unreachable: its partitions fail over
// to ring successors until MarkUp. It bumps the map version.
func (m *Map) MarkDown(idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.down[idx] {
		m.down[idx] = true
		m.version++
	}
}

// MarkUp restores a node to the map, reverting its partitions to the
// static assignment. It bumps the map version. MarkUp alone is NOT a
// safe recovery path for a node that missed writes while down — the
// live state of its partitions accumulated on the ring successors — so
// cluster recovery routes through Router.Recover, which migrates the
// adopted state back under a new epoch before calling MarkUp.
func (m *Map) MarkUp(idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down[idx] {
		m.down[idx] = false
		m.version++
	}
}

// Down reports whether a node is currently marked down.
func (m *Map) Down(idx int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.down[idx]
}

// Version counts rebalances (MarkDown/MarkUp transitions) — a cheap way
// for callers to notice the map changed under them.
func (m *Map) Version() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// Epoch returns the map's migration epoch: a monotonic counter bumped
// by every coordinated live migration (node recovery, replacement,
// resharding). Takeover packages are stamped with the epoch that
// shipped them, which a receiver's map advances to, and a migration's
// barrier is named by it. Which package is stale is the GSeq rule's to
// say: a package covering less of the key's log than the receiver holds
// is discarded.
func (m *Map) Epoch() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// NextEpoch bumps the migration epoch and returns the new value — the
// coordinator calls it once per migration, before shipping packages.
func (m *Map) NextEpoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	return m.epoch
}

// AdvanceEpoch raises the epoch to at least e (monotonic max): nodes
// observing a migration stamped with a newer epoch than their own map's
// adopt it, so every map in the cluster converges on the coordinator's
// count.
func (m *Map) AdvanceEpoch(e int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e > m.epoch {
		m.epoch = e
	}
}

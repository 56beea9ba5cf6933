package cluster

import (
	"fmt"
	"sync"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

// ReplicaStore holds the partition packages a node keeps on behalf of
// its ring predecessors, one per partition key (a group ID or a
// "~member" key): replicated event records extend a package's log part
// one GSeq at a time, package records replace its directory part, and a
// takeover drains one package into the live planes. A key's head is the
// GSeq of the last event held, with nothing missing below it, so an ack
// naming it means stored. Retention is bounded per key
// (at least cap events, trimmed amortized at 2×cap, FIFO) — a client
// older than the retained suffix converges through the snapshot
// fallback, same as with the in-process log ring. Safe for concurrent
// use.
type ReplicaStore struct {
	mu   sync.Mutex
	cap  int
	pkgs map[string]*protocol.TakeoverBody
	// versions records, per key, the sender and forward ID of the package
	// or drop last applied: the same sender's older ones are stale. A
	// drop keeps its entry as a tombstone, and tombs lists those in drop
	// order so that only the newest maxTombstones are kept.
	versions map[string]forwardVersion
	tombs    []string
	// epochs records, per key, the newest migration epoch whose takeover
	// package this store (or its node) has installed; packages stamped
	// older are stale and discarded.
	epochs map[string]int64
}

// NewReplicaStore returns an empty store retaining up to cap events per
// key (cap <= 0 means 512, matching the log plane's default).
func NewReplicaStore(cap int) *ReplicaStore {
	if cap <= 0 {
		cap = 512
	}
	return &ReplicaStore{
		cap: cap, pkgs: make(map[string]*protocol.TakeoverBody),
		versions: make(map[string]forwardVersion), epochs: make(map[string]int64),
	}
}

// ApplyRecord applies the journal record a replica forward carried,
// sent by from as forward id, through ApplyEvent, Apply or Drop by its
// kind, and returns the head of the record's key after it — what the
// ack names. A record without a key or of another kind, or a package
// that does not read back, is refused with an error and changes nothing.
func (s *ReplicaStore) ApplyRecord(rec grouplog.WALRecord, from string, id int64) (int64, error) {
	if rec.Key == "" {
		return 0, fmt.Errorf("cluster: replica record of kind %d without a key", rec.Kind)
	}
	switch rec.Kind {
	case grouplog.WALEvent:
		return s.ApplyEvent(rec.Key, rec.Wire, rec.Data), nil
	case grouplog.WALPackage:
		p, err := protocol.PackageOf(rec)
		if err != nil {
			return 0, err
		}
		s.Apply(p, from, id)
	case grouplog.WALMemberDrop:
		s.Drop(rec.PartitionKey(), from, id)
	default:
		return 0, fmt.Errorf("cluster: replica record of kind %d", rec.Kind)
	}
	return s.Head(rec.PartitionKey()), nil
}

// ApplyEvent records one replicated logged event for a key and returns
// the key's head after it. The wire bytes are the owner's stamped
// fan-out bytes; their envelope is parsed here (off the owner's hot
// path) to recover the sequence fields. Only the event at head+1 is
// stored: a lower GSeq is a duplicate, and a higher one is refused —
// the ack's head tells the owner where to repair from. An optional
// floor snapshot replaces the package's floor state, stored as it came.
// A dropped member's log takes no late events: the drop's tombstone
// refuses them.
func (s *ReplicaStore) ApplyEvent(key string, wire, floor []byte) int64 {
	env, err := protocol.DecodeAny(wire)
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pkgs[key]
	head := logHead(p)
	if err != nil || env.GSeq != head+1 {
		return head
	}
	if !ok {
		if s.versions[key].dropped {
			return 0
		}
		p = &protocol.TakeoverBody{Key: key}
		s.pkgs[key] = p
	}
	p.Events = append(p.Events, protocol.ReplicaEventBody{
		GSeq: env.GSeq, CSeq: env.CSeq, Class: env.Class, State: env.State, Wire: wire,
	})
	if env.Class == protocol.ClassBoard {
		// Track the owner's board head across the whole coalesced burst,
		// so takeover knows where sequence minting must resume even if
		// earlier board events were trimmed from the retained suffix.
		var body protocol.SequencedBody
		if env.Into(&body) == nil {
			if body.Seq > p.BoardHead {
				p.BoardHead = body.Seq
			}
			for _, op := range body.More {
				if op.Seq > p.BoardHead {
					p.BoardHead = op.Seq
				}
			}
		}
	}
	if len(p.Events) >= 2*s.cap {
		// Amortized trim: compacting on every event past the cap would
		// copy the whole window per append — O(cap) on the replication
		// hot path. Letting the slice run to 2×cap and then cutting
		// back to cap copies cap events once per cap appends, so the
		// steady-state cost is one event-copy per event. Takeover only
		// needs the retained suffix, so briefly holding up to 2×cap-1
		// events is extra safety margin, never staleness.
		p.Events = append(p.Events[:0:0], p.Events[len(p.Events)-s.cap:]...)
	}
	if floor != nil {
		p.Floor = floor
	}
	return env.GSeq
}

// logHead is the GSeq of the last event a package holds (0 for none,
// or no package).
func logHead(p *protocol.TakeoverBody) int64 {
	if p == nil || len(p.Events) == 0 {
		return 0
	}
	return p.Events[len(p.Events)-1].GSeq
}

// forwardVersion identifies a replication forward: who sent it and the
// ID the sender gave it. IDs rise with every forward a sender makes.
// dropped marks a drop's tombstone.
type forwardVersion struct {
	from    string
	id      int64
	dropped bool
}

// stale reports whether a forward is no newer than the last one applied
// for the same key. A sender's peer link is FIFO, but a link that fails
// is re-dialled while the old connection may still be read out, so a
// forward can arrive after one the same sender made later. Forwards of
// different senders are not ordered, and an unidentified one (id 0: a
// migration's takeover package, ordered by epoch instead) is never
// stale.
func (last forwardVersion) stale(from string, id int64) bool {
	return id != 0 && last.from == from && id <= last.id
}

// Apply records a package sent by from as forward id — a directory
// change's partial package or an adoption's whole one, or (from "",
// id 0) a migration's whole one. A stale package is dropped: a late
// forward must neither take a member back out of a group nor bring a
// dropped member back to life. The directory part (chair and roster, or
// member row and token) replaces the stored one whole; the log part,
// which ApplyEvent otherwise keeps, only where the package carries it —
// a directory change carries none.
func (s *ReplicaStore) Apply(p protocol.TakeoverBody, from string, id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.versions[p.Key].stale(from, id) {
		return
	}
	s.versions[p.Key] = forwardVersion{from: from, id: id}
	q, ok := s.pkgs[p.Key]
	if !ok {
		q = &protocol.TakeoverBody{Key: p.Key}
		s.pkgs[p.Key] = q
	}
	q.Chair, q.Members, q.Member, q.Token = p.Chair, p.Members, p.Member, p.Token
	if p.Floor != nil {
		q.Floor = p.Floor
	}
	if p.BoardHead > q.BoardHead {
		q.BoardHead = p.BoardHead
	}
	if len(p.Events) > 0 {
		q.Events = append(q.Events[:0:0], p.Events...)
	}
}

// maxTombstones bounds the dropped keys whose forward version is
// remembered. A tombstone only has to outlive the same sender's older
// forwards still in flight: a repair re-sends a key's current state,
// never an old copy, so those are the forwards of a retired connection
// still being read out, at most one link queue (peerQueueCap) of them.
// Four queues' worth of drops leaves room for several at once.
const maxTombstones = 4 * peerQueueCap

// Drop retracts a key's package, sent by from as forward id — a member's
// home node expired the session, so the replica must not adopt any of
// it (row, token, member log) back to life. The drop's version stays
// behind as a tombstone against older state still in flight.
func (s *ReplicaStore) Drop(key, from string, id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.versions[key].stale(from, id) {
		return
	}
	s.versions[key] = forwardVersion{from: from, id: id, dropped: true}
	delete(s.pkgs, key)
	s.tombs = append(s.tombs, key)
	if len(s.tombs) > maxTombstones {
		oldest := s.tombs[0]
		s.tombs = s.tombs[1:]
		if s.versions[oldest].dropped {
			delete(s.versions, oldest)
		}
	}
}

// Has reports whether the store holds a package for a key — the
// adoption test: a node asked to serve a partition it does not
// primarily own adopts it exactly when a replica is present.
func (s *ReplicaStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pkgs[key]
	return ok
}

// Head returns a key's head: the GSeq of the last replicated event
// held, with none missing below it (0 when none).
func (s *ReplicaStore) Head(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return logHead(s.pkgs[key])
}

// Take removes and returns a key's package for takeover. The removal is
// what makes adoption idempotent: the second caller finds nothing and
// treats the key as already live.
func (s *ReplicaStore) Take(key string) (protocol.TakeoverBody, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pkgs[key]
	if !ok {
		return protocol.TakeoverBody{}, false
	}
	delete(s.pkgs, key)
	return *p, true
}

// Keys lists the keys the store holds packages for — migration's
// enumeration of what a recovering node may be owed.
func (s *ReplicaStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.pkgs))
	for k := range s.pkgs {
		out = append(out, k)
	}
	return out
}

// KeyOfToken finds the member package holding the given resume token —
// the lookup a successor runs when a resume arrives for a token it never
// minted.
func (s *ReplicaStore) KeyOfToken(token string) (string, bool) {
	if token == "" {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, p := range s.pkgs {
		if p.Token == token {
			return k, true
		}
	}
	return "", false
}

// AdmitEpoch checks a takeover package's epoch against the newest this
// store has seen for the key, recording it when newer. It reports false
// for a stale package (epoch older than one already installed) — the
// rule that keeps repeated or racing migrations from resurrecting old
// state.
func (s *ReplicaStore) AdmitEpoch(key string, epoch int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epochs[key] {
		return false
	}
	s.epochs[key] = epoch
	return true
}

package cluster

import (
	"fmt"
	"sync"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

// ReplicaStore holds the partition packages a node keeps on behalf of
// its ring predecessors, one per partition key (a group ID or a
// "~member" key), and judges every record that reaches it by the GSeq it
// names in the key's log: a log record (an event or a directory entry)
// extends a package one GSeq at a time, a package record replaces the
// package if it covers at least as much of the log, and a member's drop
// retracts it if it is past it. A key's head is the GSeq its package
// covers, with nothing missing below, so an ack naming it means stored;
// a dropped key's head is its drop's GSeq, the last of its log, so it
// takes no log record after it. A takeover drains one package into the
// live planes. A migration's takeover package is ordered by its epoch
// instead (AdmitEpoch): the recovering owner's journal and the adopter's
// log may have forked, and GSeqs of two histories do not compare.
// Retention is bounded per key
// (at least cap events, trimmed amortized at 2×cap, FIFO) — a client
// older than the retained suffix converges through the snapshot
// fallback, same as with the in-process log ring. Safe for concurrent
// use.
type ReplicaStore struct {
	mu   sync.Mutex
	cap  int
	pkgs map[string]*protocol.TakeoverBody
	// dropped holds each dropped key's drop GSeq, a tombstone against the
	// records of the key's log still in flight, and tombs lists those in
	// drop order so that only the newest maxTombstones are kept.
	dropped map[string]int64
	tombs   []string
	// epochs holds, per key, the newest migration epoch whose takeover
	// package this store (or its node) has installed.
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
		dropped: make(map[string]int64), epochs: make(map[string]int64),
	}
}

// ApplyRecord applies the journal record a replica or takeover forward
// carried by the one rule above and returns the head of the record's key
// after it — what the ack names. A record without a key or of another
// kind, or a package or directory entry that does not read back, is
// refused with an error and changes nothing.
func (s *ReplicaStore) ApplyRecord(rec grouplog.WALRecord) (int64, error) {
	var p protocol.TakeoverBody
	var err error
	switch {
	case rec.Key == "":
		err = fmt.Errorf("cluster: replica record of kind %d without a key", rec.Kind)
	case rec.Kind == grouplog.WALPackage || rec.Class == grouplog.ClassDirectory:
		p, err = protocol.PackageOf(rec)
	case rec.Kind != grouplog.WALEvent && rec.Kind != grouplog.WALMemberDrop:
		err = fmt.Errorf("cluster: replica record of kind %d", rec.Kind)
	}
	if err != nil {
		return 0, err
	}
	key := rec.PartitionKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	q, live := s.pkgs[key]
	head := s.dropped[key]
	if live {
		head = q.GSeq
	}
	switch {
	case rec.Kind == grouplog.WALEvent && rec.GSeq == head+1 && (live || head == 0):
		if !live {
			q = &protocol.TakeoverBody{Key: key}
			s.pkgs[key] = q
		}
		s.appendLocked(q, rec, p)
	case rec.Kind == grouplog.WALPackage && rec.GSeq >= head:
		delete(s.dropped, key)
		pkg := p // a copy: taking p's address would heap-allocate it for every record
		pkg.Key = key
		s.pkgs[key] = &pkg
	case rec.Kind == grouplog.WALMemberDrop && rec.GSeq > head:
		delete(s.pkgs, key)
		s.dropped[key] = rec.GSeq
		if s.tombs = append(s.tombs, key); len(s.tombs) > maxTombstones {
			delete(s.dropped, s.tombs[0])
			s.tombs = s.tombs[1:]
		}
	default:
		return head, nil
	}
	return rec.GSeq, nil
}

// ApplyEvent applies a client event frame replicated for a key, as
// ApplyRecord applies its record: its sequence fields read from the
// frame's envelope, floor stored beside it. It returns the key's head
// after it.
func (s *ReplicaStore) ApplyEvent(key string, wire, floor []byte) int64 {
	env, err := protocol.DecodeBinary(wire)
	if err != nil {
		return s.Head(key)
	}
	head, _ := s.ApplyRecord(grouplog.WALRecord{
		Kind: grouplog.WALEvent, Key: key, GSeq: env.GSeq, CSeq: env.CSeq, Class: env.Class, State: env.State, Wire: wire, Data: floor,
	})
	return head
}

// appendLocked extends q by the event or directory entry rec at its
// head+1: the entry (a directory entry without its bytes), the floor
// snapshot stored beside it as it came, and a directory entry's
// directory part, read back as dir. Requires s.mu.
func (s *ReplicaStore) appendLocked(q *protocol.TakeoverBody, rec grouplog.WALRecord, dir protocol.TakeoverBody) {
	wire := rec.Wire
	switch rec.Class {
	case grouplog.ClassDirectory:
		q.Chair, q.Members, q.Member, q.Token = dir.Chair, dir.Members, dir.Member, dir.Token
		wire = nil // as in the owner's log: the package states the directory
	case protocol.ClassBoard:
		// Track the owner's board head across the whole coalesced burst,
		// so takeover knows where sequence minting must resume even if
		// earlier board events were trimmed from the retained suffix.
		var body protocol.SequencedBody
		if msg, err := protocol.DecodeBinary(rec.Wire); err == nil && msg.Into(&body) == nil {
			q.BoardHead = max(q.BoardHead, body.Seq)
			for _, op := range body.More {
				q.BoardHead = max(q.BoardHead, op.Seq)
			}
		}
	}
	q.GSeq = rec.GSeq
	q.Events = append(q.Events, protocol.ReplicaEventBody{
		GSeq: rec.GSeq, CSeq: rec.CSeq, Class: rec.Class, State: rec.State, Wire: wire,
	})
	if len(q.Events) >= 2*s.cap {
		// Amortized trim: compacting on every event past the cap would
		// copy the whole window per append — O(cap) on the replication
		// hot path. Letting the slice run to 2×cap and then cutting
		// back to cap copies cap events once per cap appends, so the
		// steady-state cost is one event-copy per event. Takeover only
		// needs the retained suffix, so briefly holding up to 2×cap-1
		// events is extra safety margin, never staleness.
		q.Events = append(q.Events[:0:0], q.Events[len(q.Events)-s.cap:]...)
	}
	if rec.Data != nil {
		q.Floor = rec.Data
	}
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

// maxTombstones bounds the dropped keys whose drop GSeq is remembered. A
// tombstone only has to outlive the records of the dropped key's log
// still in flight: a repair re-sends a key's current state, never an old
// copy, so those are the forwards of a retired connection still being
// read out, at most one link queue (peerQueueCap) of them. Four queues'
// worth of drops leaves room for several at once.
const maxTombstones = 4 * peerQueueCap

// Has reports whether the store holds a package for a key — the
// adoption test: a node asked to serve a partition it does not
// primarily own adopts it exactly when a replica is present.
func (s *ReplicaStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pkgs[key]
	return ok
}

// Head returns the GSeq a key's package covers, with none missing below
// it (0 when the store holds no package for the key).
func (s *ReplicaStore) Head(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.pkgs[key]; ok {
		return q.GSeq
	}
	return 0
}

// Take removes and returns a key's package for takeover. The removal is
// what makes adoption idempotent: the second caller finds nothing and
// treats the key as already live. A dropped key's tombstone goes too:
// a migration's package takes the key's place whatever the store held.
func (s *ReplicaStore) Take(key string) (protocol.TakeoverBody, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.dropped, key)
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

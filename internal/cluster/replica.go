package cluster

import (
	"sync"

	"dmps/internal/protocol"
)

// ReplicaEvent is one replicated logged event: the stamped wire bytes
// exactly as the owner fanned them out, plus the sequence fields parsed
// back out so a takeover can install them into the adopting node's log
// plane with the original numbering (clients' cursors keep counting).
// It is the takeover package's own event form, so a stored replica
// ships as it stands.
type ReplicaEvent = protocol.ReplicaEventBody

// GroupReplica is the takeover package for one group partition: the
// retained logged-event suffix, the latest floor-state blob (mode,
// holder, the queue the redacted wire bytes cannot carry, suspensions,
// pin), and the membership roster with its chair.
type GroupReplica struct {
	Events  []ReplicaEvent
	Floor   *protocol.FloorReplicaBody
	Members []protocol.NodeMemberInfo
	Chair   string
	Head    int64
	// BoardHead is the highest board operation sequence the owner was
	// known to have issued. The adopting node advances its board past it
	// even when the retained event suffix is incomplete (trimmed by the
	// cap, or a dropped best-effort forward), so a takeover can never
	// re-mint board sequence numbers clients already applied.
	BoardHead int64
}

// ReplicaStore holds the group replicas a node keeps on behalf of its
// ring predecessor: ForwardReplica and ForwardMembers forwards
// accumulate here, and a takeover drains one group's package into the
// live planes. Retention is bounded per group (at least cap events,
// trimmed amortized at 2×cap, FIFO) — a client older than the retained
// suffix converges through the snapshot fallback, same as with the
// in-process log ring. Safe for concurrent use.
type ReplicaStore struct {
	mu      sync.Mutex
	cap     int
	groups  map[string]*GroupReplica
	members map[string]*MemberHome
	// rosters records, per group, the sender and forward ID of the roster
	// last applied: the same sender's older rosters are stale. homes does
	// the same per member for member_home and member_drop forwards; a
	// drop keeps its entry as a tombstone, and tombs lists those in drop
	// order so that only the newest maxTombstones are kept.
	rosters map[string]forwardVersion
	homes   map[string]forwardVersion
	tombs   []string
	// epochs records, per key, the newest migration epoch whose takeover
	// package this store (or its node) has installed; packages stamped
	// older are stale and discarded.
	epochs map[string]int64
}

// MemberHome is a member's replicated home-node state: the directory
// row and the session-resume token. The home's successor holds it so a
// resume presented after home-node death can be adopted instead of
// expiring the session.
type MemberHome struct {
	Info  protocol.NodeMemberInfo
	Token string
}

// NewReplicaStore returns an empty store retaining up to cap events per
// group (cap <= 0 means 512, matching the log plane's default).
func NewReplicaStore(cap int) *ReplicaStore {
	if cap <= 0 {
		cap = 512
	}
	return &ReplicaStore{
		cap: cap, groups: make(map[string]*GroupReplica),
		members: make(map[string]*MemberHome), epochs: make(map[string]int64),
		rosters: make(map[string]forwardVersion), homes: make(map[string]forwardVersion),
	}
}

func (s *ReplicaStore) group(id string) *GroupReplica {
	g, ok := s.groups[id]
	if !ok {
		g = &GroupReplica{}
		s.groups[id] = g
	}
	return g
}

// ApplyEvent records one replicated logged event for a group. The wire
// bytes are the owner's stamped fan-out bytes; their envelope is parsed
// here (off the owner's hot path) to recover the
// sequence fields. An optional floor blob replaces the group's takeover
// floor state.
func (s *ReplicaStore) ApplyEvent(groupID string, wire []byte, floor *protocol.FloorReplicaBody) {
	env, err := protocol.DecodeAny(wire)
	if err != nil || env.GSeq == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.group(groupID)
	// Forwards ride FIFO per-peer queues, so duplicates cannot happen but
	// a re-dial after a pool hiccup can replay nothing; only advance.
	if env.GSeq <= g.Head {
		return
	}
	g.Head = env.GSeq
	g.Events = append(g.Events, ReplicaEvent{
		GSeq: env.GSeq, CSeq: env.CSeq, Class: env.Class, State: env.State, Wire: wire,
	})
	if env.Class == protocol.ClassBoard {
		// Track the owner's board head across the whole coalesced burst,
		// so takeover knows where sequence minting must resume even if
		// earlier board events were trimmed from the retained suffix.
		var body protocol.SequencedBody
		if env.Into(&body) == nil {
			if body.Seq > g.BoardHead {
				g.BoardHead = body.Seq
			}
			for _, op := range body.More {
				if op.Seq > g.BoardHead {
					g.BoardHead = op.Seq
				}
			}
		}
	}
	if len(g.Events) >= 2*s.cap {
		// Amortized trim: compacting on every event past the cap would
		// copy the whole window per append — O(cap) on the replication
		// hot path. Letting the slice run to 2×cap and then cutting
		// back to cap copies cap events once per cap appends, so the
		// steady-state cost is one event-copy per event. Takeover only
		// needs the retained suffix, so briefly holding up to 2×cap-1
		// events is extra safety margin, never staleness.
		g.Events = append(g.Events[:0:0], g.Events[len(g.Events)-s.cap:]...)
	}
	if floor != nil {
		g.Floor = floor
	}
}

// forwardVersion identifies a replication forward: who sent it and the
// ID the sender gave it. IDs rise with every forward a sender makes.
type forwardVersion struct {
	from string
	id   int64
}

// stale reports whether a forward is no newer than the last one applied
// for the same key. The ack table resends what was not acknowledged in
// time, so a forward can arrive after one the same sender made later.
// Forwards of different senders are not ordered, and an unidentified
// one (id 0: a migration's takeover package, ordered by epoch instead)
// is never stale.
func (last forwardVersion) stale(from string, id int64) bool {
	return id != 0 && last.from == from && id <= last.id
}

// ApplyMembers records a group's replicated membership roster and chair,
// sent by from as forward id. Rosters replace each other whole, so a
// stale one is dropped: a late duplicate must not take a member back out
// of the group.
func (s *ReplicaStore) ApplyMembers(groupID, chair string, members []protocol.NodeMemberInfo, from string, id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rosters[groupID].stale(from, id) {
		return
	}
	s.rosters[groupID] = forwardVersion{from: from, id: id}
	g := s.group(groupID)
	g.Chair = chair
	g.Members = members
}

// Has reports whether the store holds any replica state for a group —
// the adoption test: a node asked to serve a partition it does not
// primarily own adopts it exactly when a replica is present.
func (s *ReplicaStore) Has(groupID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.groups[groupID]
	return ok
}

// Head returns the highest replicated GSeq for a group (0 when none) —
// what tests wait on to know replication caught up before a kill.
func (s *ReplicaStore) Head(groupID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.groups[groupID]; ok {
		return g.Head
	}
	return 0
}

// Take removes and returns a group's replica package for takeover. The
// removal is what makes adoption idempotent: the second caller finds
// nothing and treats the group as already live.
func (s *ReplicaStore) Take(groupID string) (GroupReplica, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[groupID]
	if !ok {
		return GroupReplica{}, false
	}
	delete(s.groups, groupID)
	return *g, true
}

// GroupKeys lists the keys the store holds replica packages for —
// migration's enumeration of what a recovering node may be owed.
func (s *ReplicaStore) GroupKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.groups))
	for k := range s.groups {
		out = append(out, k)
	}
	return out
}

// MemberIDs lists the member IDs the store holds replicated homes for.
func (s *ReplicaStore) MemberIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for id := range s.members {
		out = append(out, id)
	}
	return out
}

// maxTombstones bounds the dropped members whose forward version is
// remembered. A tombstone only has to outlive the resends of the homes
// sent before the drop, and the sender gives those up within seconds
// (ackMaxAttempts); the ack table holds at most ackTableCap forwards at
// once, so that many drops cannot all be newer than a live resend.
const maxTombstones = ackTableCap

// ApplyMemberHome records a member's replicated home state (directory
// row + resume token), keyed by member ID, sent by from as forward id.
// A stale forward is dropped: a resent home must not bring a dropped
// member back to life, nor put an old token over a new one.
func (s *ReplicaStore) ApplyMemberHome(info protocol.NodeMemberInfo, token, from string, id int64) {
	if info.ID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.homes[info.ID].stale(from, id) {
		return
	}
	s.homes[info.ID] = forwardVersion{from: from, id: id}
	s.members[info.ID] = &MemberHome{Info: info, Token: token}
}

// DropMemberHome retracts a replicated member home — the home node
// expired the session, so the replica must not adopt it back to life.
// The drop's version stays behind as a tombstone against older homes
// still in flight.
func (s *ReplicaStore) DropMemberHome(memberID, from string, id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.homes[memberID].stale(from, id) {
		return
	}
	s.homes[memberID] = forwardVersion{from: from, id: id}
	delete(s.members, memberID)
	s.tombs = append(s.tombs, memberID)
	if len(s.tombs) > maxTombstones {
		oldest := s.tombs[0]
		s.tombs = s.tombs[1:]
		if _, live := s.members[oldest]; !live {
			delete(s.homes, oldest)
		}
	}
}

// MemberByToken finds the replicated member home holding the given
// resume token — the lookup a successor runs when a resume arrives for
// a token it never minted.
func (s *ReplicaStore) MemberByToken(token string) (MemberHome, bool) {
	if token == "" {
		return MemberHome{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mh := range s.members {
		if mh.Token == token {
			return *mh, true
		}
	}
	return MemberHome{}, false
}

// TakeMember removes and returns a member's replicated home for
// adoption — delete-on-read idempotency, like Take.
func (s *ReplicaStore) TakeMember(memberID string) (MemberHome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mh, ok := s.members[memberID]
	if !ok {
		return MemberHome{}, false
	}
	delete(s.members, memberID)
	return *mh, true
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

// Install replaces a group's replica package wholesale — how a
// takeover package shipped by a migration lands on a node that does not
// natively own the key (it becomes replica state for a later failover).
func (s *ReplicaStore) Install(groupID string, rep GroupReplica) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := rep
	cp.Events = append([]ReplicaEvent(nil), rep.Events...)
	s.groups[groupID] = &cp
}

package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/cluster"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/metrics"
	"dmps/internal/protocol"
	"dmps/internal/trace"
	"dmps/internal/transport"
)

// DefaultReplicationFactor is the cluster's copy count when the config
// does not choose one: the owner plus one ring successor — the PR-5
// topology, now with acks.
const DefaultReplicationFactor = 2

// ClusterConfig turns a server into one group-partition node of a
// multi-process cluster: the node serves only the groups (and homes
// only the members) the shared partition map assigns to Self, rejects
// the rest with a "node_moved" redirect, replicates every logged append
// of its partitions to R-1 ring successors for takeover (each forward
// tracked until acked), and exchanges typed TForward messages with its
// peers for cross-partition state (invitations to a member's home
// node, epoch-versioned migration). A nil ClusterConfig on
// Config.Cluster is the ordinary standalone server.
type ClusterConfig struct {
	// Nodes lists every node address in ring order — identical on every
	// node and on the router.
	Nodes []string
	// Self is this node's index in Nodes.
	Self int
	// ReplicationFactor is the number of copies of every logged append
	// (the owner plus ReplicationFactor-1 ring successors). It clamps
	// to len(Nodes); <= 0 means DefaultReplicationFactor. A grant is
	// only as lost as ReplicationFactor simultaneous deaths.
	ReplicationFactor int
	// Network dials peer nodes (defaults to Config.Network). On netsim
	// pass the node's own host-pinned dialer so link configs apply.
	Network transport.Network
}

// clusterState is a node's runtime cluster machinery: the shared
// partition map, the pooled peer transport, the replica store holding
// partitions this node stands by for, the head table of its own
// replicas, and the partition keys it has adopted after a failover.
type clusterState struct {
	cfg        ClusterConfig
	topo       *cluster.Map
	pool       *cluster.Pool
	store      *cluster.ReplicaStore
	peers      []string // the replica peers, ring successors
	heads      *cluster.HeadTable
	ackLatency *metrics.Histogram
	repairs    atomic.Int64 // forwards a repair sent

	mu sync.Mutex
	// adopted holds the partition keys — group IDs and "~member" keys —
	// this node took over from its replica store after their owner died.
	adopted map[string]bool
	// migrating marks keys mid-handoff to a recovering node: the gate
	// answers node_moved for them until the migration completes, so no
	// append can land between the takeover dump and the epoch bump.
	migrating map[string]bool
	// served mirrors adopted with lock-free reads for the append path:
	// an event's record runs inside its log's lock, and taking mu there
	// would invert against adoption (which holds mu while installing
	// into log locks). Entries are stored only after a takeover's
	// install completes.
	served sync.Map
}

// newClusterState validates and assembles a node's cluster machinery.
func newClusterState(cfg ClusterConfig, fallback transport.Network, replicaCap int) (*clusterState, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("server: ClusterConfig.Nodes is empty")
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Nodes) {
		return nil, fmt.Errorf("server: ClusterConfig.Self %d out of range", cfg.Self)
	}
	if cfg.Network == nil {
		cfg.Network = fallback
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = DefaultReplicationFactor
	}
	if cfg.ReplicationFactor > len(cfg.Nodes) {
		cfg.ReplicationFactor = len(cfg.Nodes)
	}
	cs := &clusterState{
		cfg:        cfg,
		topo:       cluster.NewMap(cfg.Nodes),
		pool:       cluster.NewPool(cfg.Network),
		store:      cluster.NewReplicaStore(replicaCap),
		adopted:    make(map[string]bool),
		migrating:  make(map[string]bool),
		ackLatency: metrics.NewHistogram(nil),
	}
	for _, i := range cs.topo.Successors(cfg.Self, cfg.ReplicationFactor-1) {
		cs.peers = append(cs.peers, cfg.Nodes[i])
	}
	return cs, nil
}

// selfAddr is this node's own peer address — what receivers ack back to.
func (c *clusterState) selfAddr() string { return c.cfg.Nodes[c.cfg.Self] }

// partitionOwner is the node a partition key natively belongs to: the
// hash of a group ID, or of a "~member" key's home key.
func (c *clusterState) partitionOwner(key string) int {
	if id, ok := strings.CutPrefix(key, "~"); ok {
		key = cluster.HomeKey(id)
	}
	return c.topo.Primary(key)
}

// ReplicaHead reports the highest replicated GSeq this node holds for a
// group it stands by for — what tests wait on before killing the owner.
func (s *Server) ReplicaHead(groupID string) int64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.store.Head(groupID)
}

// ReplicationPending reports what the replicas have not acked storing:
// the GSeqs shipped past each (peer, key) head — what tests drain to
// zero before a kill proves every copy landed.
func (s *Server) ReplicationPending() int {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.heads.Pending()
}

// homesMember reports whether this node is the member's home — the
// owner of their directory entry, session token and private event log —
// natively or by adoption. Standalone servers home everyone.
func (s *Server) homesMember(id group.MemberID) bool {
	return s.cluster == nil || s.servesKey(grouplog.MemberKey(string(id)))
}

// ownerAddr names the node currently assigned a partition key (primary
// assignment; the router layers liveness on top).
func (s *Server) ownerAddr(key string) string {
	return s.cluster.cfg.Nodes[s.cluster.topo.Primary(key)]
}

// servesGroup reports whether this node serves a group's partition:
// natively (the map's primary), by adoption (a takeover already ran),
// or by adopting now — the routing tier sent us traffic for a partition
// we hold a replica of, which is exactly the failover signal. A node
// with neither claim — or one mid-migration of the key back to its
// recovering primary — answers node_moved.
func (s *Server) servesGroup(groupID string) bool {
	if s.cluster == nil {
		return true
	}
	primary := s.cluster.topo.Primary(groupID) == s.cluster.cfg.Self
	s.cluster.mu.Lock()
	defer s.cluster.mu.Unlock()
	if s.cluster.migrating[groupID] {
		return false
	}
	if primary {
		return true
	}
	if s.cluster.adopted[groupID] {
		return true
	}
	if !s.cluster.store.Has(groupID) {
		return false
	}
	// Holding a replica is necessary but not sufficient: stray traffic
	// (a directly-dialing client, a stale route) must not split a
	// partition whose primary is alive. Probe with a fresh dial — on the
	// failover path the primary is down and the dial fails fast; while
	// it is up, the redirect below sends the caller where it belongs.
	if s.reachable(s.ownerAddr(groupID)) {
		return false
	}
	s.adoptLocked(groupID)
	return true
}

// reachable dials a peer once and hangs up: the liveness probe that
// tells a failover (the peer is gone) from stray traffic.
func (s *Server) reachable(addr string) bool {
	probe, err := s.cluster.cfg.Network.Dial(addr)
	if err != nil {
		return false
	}
	_ = probe.Close() // the probe carried nothing, so its close has nothing to lose
	return true
}

// replicates reports whether a change to a key goes to the replica peers.
func (s *Server) replicates(key string) bool {
	return s.cluster != nil && s.servesKey(key)
}

// servesKey is the append-path form of servesGroup, for any partition
// key: native ownership or a completed adoption, with no locks the log
// append could deadlock against — and no adoption side effect.
func (s *Server) servesKey(key string) bool {
	if s.cluster.partitionOwner(key) == s.cluster.cfg.Self {
		return true
	}
	_, ok := s.cluster.served.Load(key)
	return ok
}

// adoptLocked takes over a partition key — a group, or a member's home —
// from its replica package: the package is installed into the live
// planes, and clients converge through their ordinary backfill path —
// the restored log replays with the same CSeqs their cursors expect, so
// a handoff looks exactly like a reconnect, with zero duplicate grants
// (the holder is restored, never re-granted). install records the
// package whole — journalled, and replicated to THIS node's successors
// too — so the adoption itself is durable: roster, chair, floor and log
// survive the adopter's own death. The replica forward leaves before
// the key counts as served, so no event forward for it can overtake the
// package (the pool's Send never blocks). Requires s.cluster.mu.
func (s *Server) adoptLocked(key string) {
	p, ok := s.cluster.store.Take(key)
	if !ok {
		return
	}
	s.cluster.adopted[key] = true
	_ = s.install(p, true) // an undecodable floor is counted (state_install)
	s.cluster.served.Store(key, true)
}

// adoptResume resolves a resume token this node never minted: when the
// replica store holds the member's replicated home AND their home node
// is genuinely unreachable, this node adopts them — directory row,
// token, private event log — and the resume proceeds as if it had been
// minted here. When the home is alive the caller must redirect there
// instead (second return); any other miss is an ordinary expiry.
func (s *Server) adoptResume(token string) (group.MemberID, string, bool) {
	if s.cluster == nil {
		return "", "", false
	}
	key, found := s.cluster.store.KeyOfToken(token)
	if !found {
		return "", "", false
	}
	if home := s.cluster.partitionOwner(key); home != s.cluster.cfg.Self && s.reachable(s.cluster.cfg.Nodes[home]) {
		return "", s.cluster.cfg.Nodes[home], false
	}
	s.cluster.mu.Lock()
	s.adoptLocked(key)
	s.cluster.mu.Unlock()
	return group.MemberID(key[1:]), "", true
}

// record is the one way a change leaves the live planes: rec goes to
// the journal when it is on and, when replicate says this node serves
// the change's key, to every replica peer (ship). The journal is
// best-effort (replication covers a full disk), so a record it refused
// is counted (dmps_errors_total{site="wal_append"}) and still shipped.
// Every record names its key's GSeq, which is all a replica orders it
// by. An event's or directory entry's record runs inside its log
// append's deliver callback, which is safe: the WAL and the head table
// take only their own locks, and the pool's Send never blocks.
func (s *Server) record(rec grouplog.WALRecord, replicate bool) {
	if s.wal != nil && s.wal.Append(rec) != nil {
		s.walAppendErrs.Add(1)
	}
	if replicate && s.cluster != nil && len(s.cluster.peers) > 0 {
		s.ship(s.cluster.peers, rec)
	}
}

// ship sends peers one replica forward carrying rec, and notes it in the
// head table. An event frame's sampled trace rides the forward (the
// replica records its apply span under it), and its ack becomes this
// node's repl_ack span.
func (s *Server) ship(peers []string, rec grouplog.WALRecord) {
	wire := cluster.WrapForward(protocol.ForwardBody{Kind: protocol.ForwardReplica, Record: rec, From: s.cluster.selfAddr()})
	if wire == nil {
		return
	}
	tid, _, flags := protocol.FrameTrace(wire)
	if flags&protocol.TraceSampled == 0 {
		tid = 0
	}
	now := time.Now()
	for _, peer := range peers {
		s.cluster.heads.Shipped(peer, rec, tid, now)
		s.cluster.pool.Send(peer, wire)
	}
}

// repairReplicas is the replication sweep of the probe tick: each
// (peer, key) pair out of step for its repair interval is sent the key's
// current state as one package — dump, as a client too far behind
// gets a snapshot — or, for a member no longer homed here, the drop at
// the GSeq it was shipped at. The package is read, and shipped, under
// the key's log lock, so it covers the log's head and the records
// appended after it reach the peer after it. A peer that acked a head
// past what it was shipped holds another history of the key (a life of
// this node without its journal, another node's adoption): the key's
// log first moves past that head, so the package, or the drop, replaces
// it. A peer whose circuit is open is skipped, and a key this node no
// longer serves is forgotten.
func (s *Server) repairReplicas() {
	if s.cluster == nil {
		return
	}
	links := s.cluster.pool.PeerStats()
	for _, r := range s.cluster.heads.Due(time.Now(), func(peer string) bool { return links[peer].CircuitOpen }) {
		if !s.replicates(r.Key) {
			s.cluster.heads.Forget(r.Key)
			continue
		}
		if lg, ok := s.logs.Peek(r.Key); ok && r.Acked > r.Sent {
			// The peer holds GSeqs of the key this node never shipped
			// it, another history: an empty directory entry past them
			// makes the package below cover more.
			lg.AppendRaw(r.Acked+1, 0, grouplog.ClassDirectory, true, nil)
		}
		s.dump(r.Key, func(p protocol.TakeoverBody) {
			rec, err := protocol.PackageRecord(p)
			if strings.HasPrefix(r.Key, "~") && p.Member == nil {
				rec, err = grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: r.Key[1:], GSeq: max(r.Sent, r.Acked+1)}, nil
			}
			if err == nil {
				s.ship([]string{r.Peer}, rec)
				s.cluster.repairs.Add(1)
			}
		})
	}
}

// deliverMemberEvent routes a member-directed state event (an
// invitation) to wherever the member's private event log lives: the
// local log plane when this node homes them, a typed ForwardInvite to
// their home node otherwise. The home node appends it there — same
// sequence discipline, same backfill — so invitations work across
// partitions.
func (s *Server) deliverMemberEvent(id group.MemberID, msg protocol.Message) {
	if s.homesMember(id) {
		s.logSendTo(id, msg)
		return
	}
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return
	}
	s.cluster.pool.Send(s.ownerAddr(cluster.HomeKey(string(id))),
		cluster.WrapForward(protocol.ForwardBody{Kind: protocol.ForwardInvite, To: string(id), Msg: wire}))
}

// peerLoop serves one inter-node link: a connection whose first message
// was a TForward processes forwards until the peer hangs up. Most
// forwards are one-way (acks for the replicated kinds travel back over
// the receiver's own pool, to the sender's listen address); the
// migration-coordination kinds reply on this connection. The accept
// path already tracks the connection in the server's conn table, so
// Close severs it (it is not in the session table).
func (s *Server) peerLoop(conn transport.Conn, first protocol.Message) {
	// The link is done with, whichever end hung up: its close has
	// nothing left to lose.
	defer func() { _ = conn.Close() }()
	s.handleForward(conn, first)
	for {
		wire, err := conn.Recv()
		if err != nil {
			return
		}
		if msg, err := protocol.DecodeBinary(wire); err == nil {
			s.handleForward(conn, msg)
		}
	}
}

// handleForward applies one typed node-to-node forward. conn is the
// inbound peer link, used only by the migration kinds that reply in
// place.
func (s *Server) handleForward(conn transport.Conn, msg protocol.Message) {
	if s.cluster == nil {
		return
	}
	body, err := protocol.DecodeForward(msg)
	if err != nil {
		if errors.Is(err, grouplog.ErrRecord) {
			s.replicaApplyErrs.Add(1) // a replica or takeover record cut short or of no known kind
		}
		return
	}
	switch body.Kind {
	case protocol.ForwardReplica:
		// A sampled replication forward records the replica's own
		// apply+ack span — the third process of an owner-routed op.
		var t0 time.Time
		sampled := msg.Sampled()
		if sampled {
			t0 = time.Now()
		}
		head, err := s.cluster.store.ApplyRecord(body.Record)
		if err != nil {
			s.replicaApplyErrs.Add(1) // and no ack: nothing here names a key
			return
		}
		// The ack names what this store holds, over this node's own pool
		// (the inbound peer link is a one-way writer on the sender's side).
		if body.From != "" {
			s.cluster.pool.Send(body.From, cluster.WrapForward(protocol.ForwardBody{
				Kind: protocol.ForwardAck, From: s.cluster.selfAddr(),
				Group: body.Record.PartitionKey(), Head: head,
			}))
		}
		if sampled {
			s.plane.Span(msg.TraceID, msg.TraceParent, trace.StageReplAck, t0)
		}
	case protocol.ForwardAck:
		s.cluster.heads.Ack(body.From, body.Group, body.Head, time.Now())
	case protocol.ForwardTakeover:
		if s.installTakeover(body.Record) != nil {
			s.replicaApplyErrs.Add(1)
		}
	case protocol.ForwardMigrated:
		// The shipping side's barrier: every ForwardTakeover on this
		// connection precedes it (in-order transport), so acking here
		// certifies the packages are installed.
		if body.ID != 0 && conn.Send(cluster.WrapForward(protocol.ForwardBody{
			Kind: protocol.ForwardAck, ID: body.ID, From: s.cluster.selfAddr(),
		})) != nil {
			s.migrateSendErrs.Add(1)
		}
	case protocol.ForwardMigrate:
		s.runMigration(conn, body)
	case protocol.ForwardInvite:
		if body.To == "" || len(body.Msg) == 0 {
			return
		}
		inner, err := protocol.DecodeBinary(body.Msg)
		if err != nil {
			return
		}
		// This node is authoritative for the members it homes: every
		// live member's hello came here, so an unknown ID names a member
		// that does not exist (or was reaped). Drop the forward rather
		// than fabricate a ghost directory row and a member log nobody
		// will ever read — the group owner's invite record stays pending
		// and undeliverable, the documented best-effort shape of
		// cross-partition invitations to bad IDs.
		if _, err := s.registry.Member(group.MemberID(body.To)); err != nil {
			return
		}
		s.logSendTo(group.MemberID(body.To), inner)
	}
}

// clusterGroupGate rejects a group-scoped request for a partition this
// node does not serve, answering the typed node_moved redirect whose
// detail is the owning node's address. It reports whether the request
// was intercepted.
func (s *Server) clusterGroupGate(sess *session, msg protocol.Message) bool {
	if s.cluster == nil {
		return false
	}
	gid := protocol.RequestGroup(msg)
	if gid == "" || s.servesGroup(gid) {
		return false
	}
	s.replyErr(sess, msg.Seq, protocol.CodeNodeMoved, errors.New(s.ownerAddr(gid)))
	return true
}

// MemberLogKeyOf is a small test hook: the member-log key a member's
// invitations land under (re-exported so cluster tests outside this
// package need not import grouplog).
func MemberLogKeyOf(memberID string) string { return grouplog.MemberKey(memberID) }

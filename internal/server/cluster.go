package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
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
// partitions this node stands by for, the in-flight ack table for the
// replication stream, and the partition keys it has adopted after a
// failover.
type clusterState struct {
	cfg        ClusterConfig
	topo       *cluster.Map
	pool       *cluster.Pool
	store      *cluster.ReplicaStore
	acks       *cluster.AckTable
	ackLatency *metrics.Histogram

	// stateMu orders state forwards: a key's directory part is read and
	// its forward given an ID under it, so a higher ID always carries
	// newer state and replicas can refuse the older one however late it
	// arrives.
	stateMu sync.Mutex

	mu sync.Mutex
	// adopted holds the partition keys — group IDs and "~member" keys —
	// this node took over from its replica store after their owner died.
	adopted map[string]bool
	// migrating marks keys mid-handoff to a recovering node: the gate
	// answers node_moved for them until the migration completes, so no
	// append can land between the takeover dump and the epoch bump.
	migrating map[string]bool
	// served mirrors adopted with lock-free reads for the append path:
	// replicateLogged runs inside a log's lock, and taking mu there
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
	cs.acks = cluster.NewAckTable(func(sec float64) { cs.ackLatency.Observe(sec) })
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

// replicaPeers lists the R-1 ring successors this node replicates its
// partitions to (empty outside cluster mode or in a single-node ring).
func (c *clusterState) replicaPeers() []string {
	idxs := c.topo.Successors(c.cfg.Self, c.cfg.ReplicationFactor-1)
	out := make([]string, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, c.cfg.Nodes[i])
	}
	return out
}

// ReplicaHead reports the highest replicated GSeq this node holds for a
// group it stands by for — what tests wait on before killing the owner.
func (s *Server) ReplicaHead(groupID string) int64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.store.Head(groupID)
}

// ReplicationPending reports the number of in-flight (unacked)
// replication forwards — what tests drain to zero before a kill proves
// every copy landed.
func (s *Server) ReplicationPending() int {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.acks.Pending()
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
	if probe, err := s.cluster.cfg.Network.Dial(s.ownerAddr(groupID)); err == nil {
		_ = probe.Close()
		return false
	}
	s.adoptLocked(groupID)
	return true
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
// (the holder is restored, never re-granted). install journals the
// package; it is replicated whole to THIS node's successors too, so the
// adoption itself is durable — roster, chair, floor and log survive the
// adopter's own death. The replica forward leaves before the key counts
// as served, so no event forward for it can overtake the package (the
// pool's Send never blocks). Requires s.cluster.mu.
func (s *Server) adoptLocked(key string) {
	p, ok := s.cluster.store.Take(key)
	if !ok {
		return
	}
	s.cluster.adopted[key] = true
	_ = s.install(p) // an undecodable floor is counted (state_install)
	s.replicateTracked(protocol.ForwardBody{Kind: protocol.ForwardState, Takeover: &p})
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
	if home := s.cluster.partitionOwner(key); home != s.cluster.cfg.Self {
		if probe, err := s.cluster.cfg.Network.Dial(s.cluster.cfg.Nodes[home]); err == nil {
			_ = probe.Close()
			return "", s.cluster.cfg.Nodes[home], false
		}
	}
	s.cluster.mu.Lock()
	s.adoptLocked(key)
	s.cluster.mu.Unlock()
	return group.MemberID(key[1:]), "", true
}

// replicateTracked assigns the forward an ID, registers it in the
// in-flight ack table against every replica peer, and ships it. The
// receivers ack by ID; the probe loop resends overdue entries with
// backoff. Only the ack table's own lock is taken, so this is safe
// inside a log-append deliver callback. A forward whose inner frame
// belongs to a sampled trace rides that trace (the replica records its
// apply span under it), and the ack table learns the trace ID, so the
// full-ack round trip becomes this node's repl_ack span.
func (s *Server) replicateTracked(fwd protocol.ForwardBody) {
	peers := s.cluster.replicaPeers()
	if len(peers) == 0 {
		return
	}
	fwd.ID = s.cluster.acks.NextID()
	fwd.From = s.cluster.selfAddr()
	wire := cluster.WrapForward(fwd)
	if wire == nil {
		return
	}
	s.cluster.acks.Track(fwd.ID, peers, wire)
	if tid, _, flags := protocol.FrameTrace(wire); flags&protocol.TraceSampled != 0 {
		s.cluster.acks.TrackTrace(fwd.ID, tid)
	}
	for _, peer := range peers {
		s.cluster.pool.Send(peer, wire)
	}
}

// resendOverdue runs one ack-table sweep, resending overdue forwards
// over the pool. The probe loop calls it each tick.
func (s *Server) resendOverdue(now time.Time) {
	if s.cluster == nil {
		return
	}
	for _, r := range s.cluster.acks.Due(now) {
		s.cluster.pool.Send(r.Peer, r.Wire)
	}
}

// replicateLogged ships one logged append (the stamped fan-out bytes,
// verbatim) to the R-1 replica peers, with the encoded floor snapshot
// attached for the classes whose takeover state the redacted wire bytes
// cannot carry (queue membership is private on the wire). The key is a
// group ID or a "~member" log key — member logs replicate exactly like
// group logs, which is what lets a resume survive home-node death. It
// runs inside the log append's deliver callback — the pool enqueue
// never blocks — so the replica stream observes exactly the log's
// order.
func (s *Server) replicateLogged(key string, wire, snap []byte) {
	if s.cluster == nil || !s.servesKey(key) {
		return
	}
	s.replicateTracked(protocol.ForwardBody{Kind: protocol.ForwardReplica, Group: key, Msg: wire, Floor: snap})
}

// replicateMemberDrop retracts a member's replicated package after the
// home node expires the session, so a dead member cannot be adopted
// back to life from a stale replica. No-op outside cluster mode.
func (s *Server) replicateMemberDrop(id group.MemberID) {
	if s.cluster == nil {
		return
	}
	s.replicateTracked(protocol.ForwardBody{Kind: protocol.ForwardMemberDrop, To: string(id)})
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
	defer func() { _ = conn.Close() }()
	s.handleForward(conn, first)
	for {
		wire, err := conn.Recv()
		if err != nil {
			return
		}
		msg, err := protocol.DecodeAny(wire)
		if err != nil || msg.Type != protocol.TForward {
			continue
		}
		s.handleForward(conn, msg)
	}
}

// ackForward acknowledges an identified replication forward back to its
// sender, over this node's own pool (the inbound peer link is a one-way
// writer on the sender's side).
func (s *Server) ackForward(body protocol.ForwardBody) {
	if body.ID == 0 || body.From == "" {
		return
	}
	s.cluster.pool.Send(body.From, cluster.WrapForward(protocol.ForwardBody{
		Kind: protocol.ForwardAck, ID: body.ID, From: s.cluster.selfAddr(),
	}))
}

// handleForward applies one typed node-to-node forward. conn is the
// inbound peer link, used only by the migration kinds that reply in
// place.
func (s *Server) handleForward(conn transport.Conn, msg protocol.Message) {
	if s.cluster == nil {
		return
	}
	var body protocol.ForwardBody
	if msg.Into(&body) != nil {
		return
	}
	switch body.Kind {
	case protocol.ForwardReplica:
		if body.Group != "" && len(body.WireMsg()) > 0 {
			// A sampled replication forward records the replica's own
			// apply+ack span — the third process of an owner-routed op.
			var t0 time.Time
			sampled := msg.Sampled()
			if sampled {
				t0 = time.Now()
			}
			s.cluster.store.ApplyEvent(body.Group, body.WireMsg(), body.Floor)
			s.ackForward(body)
			if sampled {
				s.plane.Span(msg.TraceID, msg.TraceParent, trace.StageReplAck, t0)
			}
		}
	case protocol.ForwardState:
		if body.Takeover != nil {
			s.cluster.store.Apply(*body.Takeover, body.From, body.ID)
			s.ackForward(body)
		}
	case protocol.ForwardMemberDrop:
		if body.To != "" {
			s.cluster.store.Drop(grouplog.MemberKey(body.To), body.From, body.ID)
			s.ackForward(body)
		}
	case protocol.ForwardAck:
		if body.From != "" {
			s.cluster.acks.Ack(body.From, body.ID)
		}
	case protocol.ForwardTakeover:
		if body.Takeover != nil {
			s.installTakeover(*body.Takeover)
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
		if body.To == "" || len(body.WireMsg()) == 0 {
			return
		}
		inner, err := protocol.DecodeBinary(body.WireMsg())
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

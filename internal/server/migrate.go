package server

// Epoch-versioned live migration: the node-side half of Router.Recover.
// When a node returns to the ring (replacement, restart, ring growth),
// the state its partitions accumulated elsewhere — adopted live state
// on the nodes that took over, plus replica packages that were never
// adopted — must move back BEFORE the partition map reassigns traffic,
// or the recovered primary would serve its partitions empty (the
// split-brain Map.MarkUp used to cause). The coordinator (the router)
// bumps the map epoch, asks every surviving node to ship what it holds
// for the recovering node (ForwardMigrate), and only after every node
// confirms (ForwardMigrated) marks the node up and pushes node_moved.
// Shipped packages are stamped with the epoch; receivers discard
// packages from epochs older than one already installed, which makes
// repeated or racing migrations converge instead of resurrecting stale
// state. The epoch, not a GSeq, orders them (ReplicaStore.AdmitEpoch).

import (
	"fmt"

	"dmps/internal/cluster"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// runMigration is the node side of a coordinated recovery: freeze every
// key this node holds for the recovering node (adopted live state and
// never-adopted replica packages alike), ship takeover packages over a
// dedicated connection, wait for the receiver's barrier ack (the
// transport is in-order, so the ack certifies every package installed),
// drop the local claim, and reply ForwardMigrated to the coordinator on
// the inbound connection.
func (s *Server) runMigration(conn transport.Conn, body protocol.ForwardBody) {
	reply := func(groups []string) {
		if conn.Send(cluster.WrapForward(protocol.ForwardBody{
			Kind: protocol.ForwardMigrated, Groups: groups, Epoch: body.Epoch,
		})) != nil {
			s.migrateSendErrs.Add(1)
		}
	}
	if body.Addr == "" {
		reply(nil)
		return
	}
	epoch := body.Epoch
	s.cluster.topo.AdvanceEpoch(epoch)

	// Freeze: collect the adopted keys owed to the recovering node and
	// gate traffic for them (node_moved) until the handoff completes.
	s.cluster.mu.Lock()
	var live []string
	for key := range s.cluster.adopted {
		if s.cluster.partitionOwner(key) == body.Node {
			live = append(live, key)
			s.cluster.migrating[key] = true
		}
	}
	s.cluster.mu.Unlock()

	// Never-adopted replica packages for the node's partitions: the
	// recovering node may have restarted empty, so the replica this node
	// holds can be the only copy of a partition that saw no traffic
	// while the node was down.
	var packages []protocol.TakeoverBody
	for _, key := range s.cluster.store.Keys() {
		if s.cluster.partitionOwner(key) != body.Node {
			continue
		}
		if p, ok := s.cluster.store.Take(key); ok {
			packages = append(packages, p)
		}
	}
	for _, key := range live {
		packages = append(packages, s.dump(key, nil))
	}

	// abort unfreezes and reports nothing shipped: this node keeps
	// serving what it holds.
	abort := func() {
		s.cluster.mu.Lock()
		for _, key := range live {
			delete(s.cluster.migrating, key)
		}
		s.cluster.mu.Unlock()
		reply(nil)
	}

	if len(packages) == 0 {
		abort()
		return
	}

	ship, err := s.cluster.cfg.Network.Dial(body.Addr)
	if err != nil {
		// The recovering node vanished again.
		abort()
		return
	}
	defer ship.Close()
	shipped := make([]string, 0, len(packages))
	for _, p := range packages {
		p.Epoch = epoch
		rec, err := protocol.PackageRecord(p)
		if err == nil {
			err = ship.Send(cluster.WrapForward(protocol.ForwardBody{Kind: protocol.ForwardTakeover, Record: rec}))
		}
		if err != nil {
			abort()
			return
		}
		shipped = append(shipped, p.Key)
	}
	// Barrier: the receiver acks this marker only after processing every
	// package that preceded it on this in-order connection, which carries
	// one migration, so its epoch names the barrier: the router bumps the
	// epoch for every migration, and an epoch is never 0.
	if err := ship.Send(cluster.WrapForward(protocol.ForwardBody{
		Kind: protocol.ForwardMigrated, ID: epoch, From: s.cluster.selfAddr(), Groups: shipped,
	})); err != nil {
		abort()
		return
	}
	for {
		wire, err := ship.Recv()
		if err != nil {
			abort()
			return
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			continue
		}
		if ack, err := protocol.DecodeForward(msg); err == nil && ack.Kind == protocol.ForwardAck && ack.ID == epoch {
			break
		}
	}

	// Handoff confirmed: drop the local claim. The residual registry and
	// log entries are harmless — the gate answers node_moved for these
	// keys now, and a future re-adoption installs idempotently on top
	// (AppendRaw dedups, CreateGroup tolerates duplicates).
	s.cluster.mu.Lock()
	for _, key := range live {
		delete(s.cluster.adopted, key)
		delete(s.cluster.migrating, key)
		s.cluster.served.Delete(key)
	}
	s.cluster.mu.Unlock()
	reply(shipped)
}

// installTakeover installs one migration package, carried as a package
// record, unless a newer migration's package for the key came first:
// into the live planes when this node natively owns the key (the
// recovering primary), whatever its own log's head, and into the
// replica store otherwise, in place of what it held (a successor
// restocking its standby copy). A record that is no package is refused
// with an error.
func (s *Server) installTakeover(rec grouplog.WALRecord) error {
	p, err := protocol.PackageOf(rec)
	if err == nil && rec.Kind != grouplog.WALPackage {
		err = fmt.Errorf("server: a takeover record of kind %d", rec.Kind)
	}
	if err != nil || !s.cluster.store.AdmitEpoch(p.Key, p.Epoch) {
		return err
	}
	s.cluster.topo.AdvanceEpoch(p.Epoch)
	if s.cluster.partitionOwner(p.Key) == s.cluster.cfg.Self {
		_ = s.install(p, false) // an undecodable floor is counted (state_install)
		return nil
	}
	s.cluster.store.Take(p.Key)
	_, err = s.cluster.store.ApplyRecord(rec)
	return err
}

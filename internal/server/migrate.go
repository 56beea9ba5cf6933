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
// state.

import (
	"strings"

	"dmps/internal/cluster"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// headOf reports the highest GSeq among a takeover package's events.
func headOf(events []protocol.ReplicaEventBody) int64 {
	var head int64
	for _, e := range events {
		if e.GSeq > head {
			head = e.GSeq
		}
	}
	return head
}

// takeoverFromReplica builds a takeover package from a stored replica.
func takeoverFromReplica(key string, epoch int64, rep cluster.GroupReplica) protocol.TakeoverBody {
	return protocol.TakeoverBody{
		Key: key, Epoch: epoch, Chair: rep.Chair, Members: rep.Members,
		Floor: rep.Floor, BoardHead: rep.BoardHead, Events: rep.Events,
	}
}

// dumpEvents exports a log's retained window in takeover-package form.
func (s *Server) dumpEvents(key string) []protocol.ReplicaEventBody {
	lg, ok := s.logs.Peek(key)
	if !ok {
		return nil
	}
	var out []protocol.ReplicaEventBody
	for _, e := range lg.Dump() {
		out = append(out, protocol.ReplicaEventBody{GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State, Wire: e.Wire})
	}
	return out
}

// liveGroupTakeover dumps a group's LIVE state — registry roster, floor
// controller snapshot, retained log window, board head — into a
// takeover package. Used for partitions this node adopted and served.
func (s *Server) liveGroupTakeover(gid string, epoch int64) protocol.TakeoverBody {
	data := s.groupData(gid)
	tb := protocol.TakeoverBody{
		Key: gid, Epoch: epoch, Chair: data.Chair, Members: data.Members,
		Floor: s.floorBlob(gid), Events: s.dumpEvents(gid),
	}
	gb := s.board(gid)
	gb.mu.Lock()
	tb.BoardHead = gb.board.Seq()
	gb.mu.Unlock()
	return tb
}

// liveMemberTakeover dumps an adopted member home's live state.
func (s *Server) liveMemberTakeover(id string, epoch int64) protocol.TakeoverBody {
	tb := protocol.TakeoverBody{Key: grouplog.MemberKey(id), Epoch: epoch}
	if m, err := s.registry.Member(group.MemberID(id)); err == nil {
		info := memberInfo(m)
		tb.Member = &info
	}
	s.mu.Lock()
	tb.Token = s.tokenOf[group.MemberID(id)]
	s.mu.Unlock()
	tb.Events = s.dumpEvents(tb.Key)
	return tb
}

// runMigration is the node side of a coordinated recovery: freeze every
// key this node holds for the recovering node (adopted live state and
// never-adopted replica packages alike), ship takeover packages over a
// dedicated connection, wait for the receiver's barrier ack (the
// transport is in-order, so the ack certifies every package installed),
// drop the local claim, and reply ForwardMigrated to the coordinator on
// the inbound connection.
func (s *Server) runMigration(conn transport.Conn, body protocol.ForwardBody) {
	reply := func(groups []string) {
		_ = conn.Send(cluster.WrapForward(protocol.ForwardBody{
			Kind: protocol.ForwardMigrated, Groups: groups, Epoch: body.Epoch,
		}))
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
	var groups, members []string
	for gid := range s.cluster.adopted {
		if s.cluster.topo.Primary(gid) == body.Node {
			groups = append(groups, gid)
			s.cluster.migrating[gid] = true
		}
	}
	for id := range s.cluster.adoptedMembers {
		if s.cluster.topo.Primary(cluster.HomeKey(id)) == body.Node {
			members = append(members, id)
			s.cluster.migrating[grouplog.MemberKey(id)] = true
		}
	}
	s.cluster.mu.Unlock()

	// Never-adopted replica packages for the node's partitions: the
	// recovering node may have restarted empty, so the replica this node
	// holds can be the only copy of a partition that saw no traffic
	// while the node was down.
	var packages []protocol.TakeoverBody
	for _, key := range s.cluster.store.GroupKeys() {
		owner := key
		if strings.HasPrefix(key, "~") {
			owner = cluster.HomeKey(strings.TrimPrefix(key, "~"))
		}
		if s.cluster.topo.Primary(owner) != body.Node {
			continue
		}
		if rep, ok := s.cluster.store.Take(key); ok {
			packages = append(packages, takeoverFromReplica(key, epoch, rep))
		}
	}
	for _, id := range s.cluster.store.MemberIDs() {
		if s.cluster.topo.Primary(cluster.HomeKey(id)) != body.Node {
			continue
		}
		if mh, ok := s.cluster.store.TakeMember(id); ok {
			info := mh.Info
			packages = append(packages, protocol.TakeoverBody{
				Key: grouplog.MemberKey(id), Epoch: epoch, Member: &info, Token: mh.Token,
			})
		}
	}
	for _, gid := range groups {
		packages = append(packages, s.liveGroupTakeover(gid, epoch))
	}
	for _, id := range members {
		packages = append(packages, s.liveMemberTakeover(id, epoch))
	}

	unfreeze := func() {
		s.cluster.mu.Lock()
		for _, gid := range groups {
			delete(s.cluster.migrating, gid)
		}
		for _, id := range members {
			delete(s.cluster.migrating, grouplog.MemberKey(id))
		}
		s.cluster.mu.Unlock()
	}

	if len(packages) == 0 {
		unfreeze()
		reply(nil)
		return
	}

	ship, err := s.cluster.cfg.Network.Dial(body.Addr)
	if err != nil {
		// The recovering node vanished again: abort, keep serving.
		unfreeze()
		reply(nil)
		return
	}
	defer ship.Close()
	shipped := make([]string, 0, len(packages))
	for i := range packages {
		tb := packages[i]
		if err := ship.Send(cluster.WrapForward(protocol.ForwardBody{
			Kind: protocol.ForwardTakeover, Takeover: &tb,
		})); err != nil {
			unfreeze()
			reply(nil)
			return
		}
		shipped = append(shipped, tb.Key)
	}
	// Barrier: the receiver acks this marker only after processing every
	// package that preceded it on this in-order connection.
	barrierID := s.cluster.acks.NextID()
	if err := ship.Send(cluster.WrapForward(protocol.ForwardBody{
		Kind: protocol.ForwardMigrated, ID: barrierID, From: s.cluster.selfAddr(), Groups: shipped,
	})); err != nil {
		unfreeze()
		reply(nil)
		return
	}
	for {
		wire, err := ship.Recv()
		if err != nil {
			unfreeze()
			reply(nil)
			return
		}
		msg, err := protocol.DecodeAny(wire)
		if err != nil || msg.Type != protocol.TForward {
			continue
		}
		var ack protocol.ForwardBody
		if msg.Into(&ack) == nil && ack.Kind == protocol.ForwardAck && ack.ID == barrierID {
			break
		}
	}

	// Handoff confirmed: drop the local claim. The residual registry and
	// log entries are harmless — the gate answers node_moved for these
	// keys now, and a future re-adoption installs idempotently on top
	// (AppendRaw dedups, CreateGroup tolerates duplicates).
	s.cluster.mu.Lock()
	for _, gid := range groups {
		delete(s.cluster.adopted, gid)
		delete(s.cluster.migrating, gid)
		s.cluster.served.Delete(gid)
	}
	for _, id := range members {
		delete(s.cluster.adoptedMembers, id)
		delete(s.cluster.migrating, grouplog.MemberKey(id))
		s.cluster.homes.Delete(id)
	}
	s.cluster.mu.Unlock()
	reply(shipped)
}

// installTakeover installs one migration package: into the live planes
// when this node natively owns the key (the recovering primary), into
// the replica store otherwise (a successor restocking its standby
// copy). Stale epochs are discarded.
func (s *Server) installTakeover(tb protocol.TakeoverBody) {
	if tb.Key == "" || !s.cluster.store.AdmitEpoch(tb.Key, tb.Epoch) {
		return
	}
	s.cluster.topo.AdvanceEpoch(tb.Epoch)
	if strings.HasPrefix(tb.Key, "~") {
		id := strings.TrimPrefix(tb.Key, "~")
		native := s.cluster.topo.Primary(cluster.HomeKey(id)) == s.cluster.cfg.Self
		if !native {
			if tb.Member != nil {
				s.cluster.store.ApplyMemberHome(*tb.Member, tb.Token, "", 0)
			}
			if len(tb.Events) > 0 {
				s.cluster.store.Install(tb.Key, cluster.GroupReplica{Events: tb.Events, Head: headOf(tb.Events)})
			}
			return
		}
		if tb.Member != nil {
			_ = s.registry.EnsureMember(memberFromInfo(*tb.Member))
			s.walMemberHome(memberFromInfo(*tb.Member), tb.Token)
		}
		s.bumpNextID(id)
		if tb.Token != "" {
			s.mu.Lock()
			s.tokens[tb.Token] = group.MemberID(id)
			s.tokenOf[group.MemberID(id)] = tb.Token
			s.mu.Unlock()
		}
		lg := s.logs.Get(tb.Key)
		for _, e := range tb.Events {
			lg.AppendRaw(e.GSeq, e.CSeq, e.Class, e.State, e.Wire)
			s.walEvent(tb.Key, e.GSeq, e.CSeq, e.Class, e.State, e.Wire)
		}
		return
	}
	rep := cluster.GroupReplica{
		Chair: tb.Chair, Members: tb.Members, Floor: tb.Floor,
		Events: tb.Events, Head: headOf(tb.Events), BoardHead: tb.BoardHead,
	}
	if s.cluster.topo.Primary(tb.Key) != s.cluster.cfg.Self {
		s.cluster.store.Install(tb.Key, rep)
		return
	}
	s.installGroupReplica(tb.Key, rep)
}

package server

import (
	"testing"
	"time"

	"dmps/internal/clock"
	"dmps/internal/cluster"
	"dmps/internal/grouplog"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// TestHostileReplicaRecordsAreCounted: a replica or takeover forward
// whose record is cut, of a kind the peer wire does not carry, has a
// length past the bytes left, has no key, or does not read back as the
// package it claims is refused without a panic, changes nothing, and
// counts dmps_errors_total{site="replica_apply"} once. A sound forward
// after them still applies and counts nothing.
func TestHostileReplicaRecordsAreCounted(t *testing.T) {
	srv, err := New(Config{
		Network: netsim.New(39), Addr: "hostile:1", Clock: clock.NewSim(time.Unix(3000, 0)), ProbeInterval: time.Hour,
		Cluster: &ClusterConfig{Nodes: []string{"hostile:1"}, Self: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	event := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{Event: "granted", Holder: "m#1"})
	event.Group, event.Class, event.State, event.GSeq, event.CSeq = "hall", protocol.ClassFloor, true, 1, 1
	inner, err := protocol.EncodeBinary(event)
	if err != nil {
		t.Fatal(err)
	}
	good := grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "hall", GSeq: 1, CSeq: 1, Class: protocol.ClassFloor, State: true, Wire: inner}
	forward := func(kind string, rec grouplog.WALRecord) []byte {
		return cluster.WrapForward(protocol.ForwardBody{Kind: kind, Record: rec, ID: 1})
	}
	// cut keeps a forward's frame up to n bytes into its record.
	cut := func(kind string, rec grouplog.WALRecord, n int) []byte {
		wire := forward(kind, rec)
		return wire[:len(wire)-len(grouplog.AppendRecord(nil, rec))+n]
	}
	pkg := grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "hall", Data: []byte(`{"key":"hall","epoch":1,"chair":"m#1"}`)}
	dir := grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "hall", GSeq: 1, CSeq: 1, Class: grouplog.ClassDirectory, State: true, Wire: []byte("{not json")}
	hostile := map[string][]byte{
		"record cut to its kind":         cut(protocol.ForwardReplica, good, 1),
		"record cut in its frame":        cut(protocol.ForwardReplica, good, 12),
		"record of an unknown kind":      forward(protocol.ForwardReplica, grouplog.WALRecord{Kind: 9, Key: "hall"}),
		"next_id on the peer wire":       forward(protocol.ForwardReplica, grouplog.WALRecord{Kind: grouplog.WALNextID, Key: "hall", GSeq: 5}),
		"package that is not JSON":       forward(protocol.ForwardReplica, grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "hall", Data: []byte("{not json")}),
		"directory entry not JSON":       forward(protocol.ForwardReplica, dir),
		"member drop without a key":      forward(protocol.ForwardReplica, grouplog.WALRecord{Kind: grouplog.WALMemberDrop}),
		"takeover of an event record":    forward(protocol.ForwardTakeover, good),
		"takeover cut in its package":    cut(protocol.ForwardTakeover, pkg, 9),
		"takeover package without a key": forward(protocol.ForwardTakeover, grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "hall", Data: []byte(`{"epoch":1}`)}),
	}
	want := int64(0)
	for name, wire := range hostile {
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			t.Fatalf("%s: the frame was refused before its record: %v", name, err)
		}
		srv.handleForward(nil, msg)
		if want++; srv.replicaApplyErrs.Load() != want {
			t.Fatalf("%s: replica_apply reads %d, want %d", name, srv.replicaApplyErrs.Load(), want)
		}
	}
	if keys := srv.cluster.store.Keys(); len(keys) != 0 {
		t.Fatalf("hostile records left packages for %v", keys)
	}
	if groups := srv.registry.Groups(); len(groups) != 0 {
		t.Fatalf("hostile records installed groups %v", groups)
	}

	msg, err := protocol.DecodeBinary(forward(protocol.ForwardReplica, good))
	if err != nil {
		t.Fatal(err)
	}
	srv.handleForward(nil, msg)
	if srv.replicaApplyErrs.Load() != want || srv.cluster.store.Head("hall") != 1 {
		t.Fatalf("a sound replica forward: replica_apply %d (want %d), head %d (want 1)",
			srv.replicaApplyErrs.Load(), want, srv.cluster.store.Head("hall"))
	}
}

package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// loggedFrame is a stamped floor event as the owner fans it out, traced
// or not — the inner frame of a replica forward.
func loggedFrame(traced bool) []byte {
	msg := MustNew(TFloorEvent, FloorEventBody{Mode: "equal_control", Holder: "m1#1", Member: "m1#1", Event: "granted", QueueLen: 2})
	msg.Group, msg.Class, msg.State, msg.GSeq, msg.CSeq = "g", ClassFloor, true, 7, 3
	if traced {
		msg.TraceID, msg.TraceParent, msg.TraceFlags = 0xABCDEF, 0xABCDEF, TraceSampled
	}
	wire, err := EncodeBinary(msg)
	if err != nil {
		panic(err) // a fixed, valid message
	}
	return wire
}

// sampleForwards is one forward of every shape the peer link carries:
// the two native kinds in each of their variants, and every JSON-bodied
// kind.
func sampleForwards() map[string]ForwardBody {
	inner := loggedFrame(false)
	floor := []byte("a floor snapshot, opaque to the peer link")
	info := NodeMemberInfo{ID: "m1#1", Name: "m1", Role: "chair", Priority: 5}
	return map[string]ForwardBody{
		"replica":            {Kind: ForwardReplica, Group: "g", Msg: inner, ID: 5, From: "n0:1"},
		"replica with floor": {Kind: ForwardReplica, Group: "g", Msg: inner, Floor: floor, ID: 6, From: "n0:1"},
		"replica traced":     {Kind: ForwardReplica, Group: "~m1#1", Msg: loggedFrame(true), ID: 7, From: "n0:1"},
		"ack":                {Kind: ForwardAck, ID: 5, From: "n1:1"},
		"invite":             {Kind: ForwardInvite, To: "m1#1", Msg: inner},
		"state roster":       {Kind: ForwardState, Takeover: &TakeoverBody{Key: "g", Chair: "m1#1", Members: []NodeMemberInfo{info}}, ID: 8, From: "n0:1"},
		"state member":       {Kind: ForwardState, Takeover: &TakeoverBody{Key: "~m1#1", Member: &info, Token: "tok"}, ID: 9, From: "n0:1"},
		"member_drop":        {Kind: ForwardMemberDrop, To: "m1#1", ID: 10, From: "n0:1"},
		"migrate":            {Kind: ForwardMigrate, Node: 1, Addr: "n1:1", Epoch: 3},
		"migrated":           {Kind: ForwardMigrated, Groups: []string{"g", "~m1#1"}, Epoch: 3, ID: 11, From: "n0:1"},
		"takeover": {Kind: ForwardTakeover, Takeover: &TakeoverBody{
			Key: "g", Epoch: 3, Chair: "m1#1", Members: []NodeMemberInfo{info}, Floor: floor, BoardHead: 4,
			Events: []ReplicaEventBody{{GSeq: 7, CSeq: 3, Class: ClassFloor, State: true, Wire: inner}},
		}},
	}
}

// TestForwardRoundTrip drives every forward kind through EncodeForward →
// DecodeAny → Into: the body survives, a replica's inner frame rides
// verbatim (no base64, aliasing the forward's own bytes), a traced
// inner frame puts its context on the forward's envelope, and neither
// native kind's bytes contain JSON.
func TestForwardRoundTrip(t *testing.T) {
	for name, want := range sampleForwards() {
		wire, err := EncodeForward(want)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		msg, err := DecodeAny(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if msg.Type != TForward {
			t.Fatalf("%s: type %q", name, msg.Type)
		}
		var got ForwardBody
		if err := msg.Into(&got); err != nil {
			t.Fatalf("%s: into: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: body drift:\n got %+v\nwant %+v", name, got, want)
		}
		native := want.Kind == ForwardReplica || want.Kind == ForwardAck
		if native == bytes.Contains(wire, []byte(`"kind"`)) {
			t.Fatalf("%s: native=%v but frame is % x", name, native, wire)
		}
		if want.Kind == ForwardReplica && !bytes.HasSuffix(wire, want.Msg) {
			t.Fatalf("%s: inner frame does not ride verbatim", name)
		}
		id, _, flags := FrameTrace(want.Msg)
		if msg.TraceID != id || msg.Sampled() != (flags&TraceSampled != 0) {
			t.Fatalf("%s: envelope trace %x sampled=%v, inner frame %x", name, msg.TraceID, msg.Sampled(), id)
		}
	}
	fwd, before := sampleForwards()["replica"], EncodeCount()
	if _, err := EncodeForward(fwd); err != nil {
		t.Fatal(err)
	}
	if EncodeCount() != before {
		t.Fatal("EncodeForward counted against the per-recipient encode gate")
	}
}

// TestReplicaForwardAllocs holds the replication hot path to one
// allocation a side: the frame on the owner, the decoded body on the
// replica. No JSON, no base64, no copy of the inner frame.
func TestReplicaForwardAllocs(t *testing.T) {
	fwd := sampleForwards()["replica"]
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := EncodeForward(fwd)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodeBinary(wire)
		if err != nil {
			t.Fatal(err)
		}
		var got ForwardBody
		if err := msg.Into(&got); err != nil || got.ID != fwd.ID {
			t.Fatalf("into: %+v %v", got, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("wrap + decode of a replica forward = %.0f allocs, want <= 2", allocs)
	}
}

// hostileForwards are forward frames a peer must refuse: each is a
// valid envelope around a native body that is cut short, names a length
// it cannot back, or carries no inner frame.
func hostileForwards() map[string][]byte {
	env := []byte{binMagic, flagNativeBody, typeCodes[TForward], 0, 0, 0, 0, 0, 0, 0}
	frame := func(body ...byte) []byte { return append(append([]byte(nil), env...), body...) }
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	whole, _ := EncodeForward(sampleForwards()["replica with floor"])
	return map[string][]byte{
		"truncated forward":        whole[:len(whole)-len(sampleForwards()["replica"].Msg)-3],
		"unknown form":             frame(9, 1, 0),
		"ack cut in its id":        frame(fwdAck, 0x80),
		"hostile floor length":     append(frame(fwdReplica, 1, 0, 1, 'g'), huge...),
		"floor past the frame":     frame(fwdReplica, 1, 0, 1, 'g', 7, binMagic),
		"zero-length inner frame":  frame(fwdReplica, 1, 0, 1, 'g', 0),
		"floor but no inner frame": frame(fwdReplica, 1, 0, 1, 'g', 2, 'f', 'l'),
		"json body cut short":      frame('{', '"', 'k'),
	}
}

// TestForwardMalformed: hostile forward bytes error at the decode
// boundary. The hostile length names 2³² bytes — sizing anything from
// it would not return.
func TestForwardMalformed(t *testing.T) {
	for name, frame := range hostileForwards() {
		if msg, err := DecodeBinary(frame); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: decoded %+v, err = %v, want ErrDecode", name, msg, err)
		}
	}
}

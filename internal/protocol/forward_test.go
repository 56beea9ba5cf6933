package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dmps/internal/grouplog"
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
// a replica forward for each record kind it ships (an event with and
// without its floor snapshot, traced or not, a package, a member drop),
// a takeover, an ack, and every JSON-bodied kind.
func sampleForwards() map[string]ForwardBody {
	inner := loggedFrame(false)
	floor := []byte("a floor snapshot, opaque to the peer link")
	info := NodeMemberInfo{ID: "m1#1", Name: "m1", Role: "chair", Priority: 5}
	event := func(key string, wire, snap []byte) grouplog.WALRecord {
		return grouplog.WALRecord{Kind: grouplog.WALEvent, Key: key, GSeq: 7, CSeq: 3, Class: ClassFloor, State: true, Wire: wire, Data: snap}
	}
	pkg := func(p TakeoverBody) grouplog.WALRecord {
		rec, err := PackageRecord(p)
		if err != nil {
			panic(err) // a fixed, valid package
		}
		return rec
	}
	return map[string]ForwardBody{
		"replica event":            {Kind: ForwardReplica, Record: event("g", inner, nil), ID: 5, From: "n0:1"},
		"replica event with floor": {Kind: ForwardReplica, Record: event("g", inner, floor), ID: 6, From: "n0:1"},
		"replica event traced":     {Kind: ForwardReplica, Record: event("~m1#1", loggedFrame(true), nil), ID: 7, From: "n0:1"},
		"replica package roster": {Kind: ForwardReplica, Record: pkg(TakeoverBody{
			Key: "g", Chair: "m1#1", Members: []NodeMemberInfo{info},
		}), ID: 8, From: "n0:1"},
		"replica package member": {Kind: ForwardReplica, Record: pkg(TakeoverBody{Key: "~m1#1", Member: &info, Token: "tok"}), ID: 9, From: "n0:1"},
		"replica member drop":    {Kind: ForwardReplica, Record: grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: "m1#1"}, ID: 10, From: "n0:1"},
		"ack":                    {Kind: ForwardAck, ID: 5, From: "n1:1", Group: "g", Head: 7},
		"ack of the barrier":     {Kind: ForwardAck, ID: 11, From: "n1:1"},
		"invite":                 {Kind: ForwardInvite, To: "m1#1", Msg: inner},
		"migrate":                {Kind: ForwardMigrate, Node: 1, Addr: "n1:1", Epoch: 3},
		"migrated":               {Kind: ForwardMigrated, Groups: []string{"g", "~m1#1"}, Epoch: 3, ID: 11, From: "n0:1"},
		"takeover": {Kind: ForwardTakeover, Record: pkg(TakeoverBody{
			Key: "g", Epoch: 3, Chair: "m1#1", Members: []NodeMemberInfo{info}, Floor: floor, BoardHead: 4,
			Events: []ReplicaEventBody{{GSeq: 7, CSeq: 3, Class: ClassFloor, State: true, Wire: inner}},
		})},
	}
}

// TestForwardRoundTrip drives every forward kind through EncodeForward →
// DecodeBinary → DecodeForward: the body survives, a replica's or takeover's record
// rides in the journal's encoding (an event's frame verbatim, no
// base64, aliasing the forward's own bytes), a traced inner frame puts
// its context on the forward's envelope, and no native kind's bytes
// contain JSON of their own.
func TestForwardRoundTrip(t *testing.T) {
	for name, want := range sampleForwards() {
		wire, err := EncodeForward(want)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		msg, err := DecodeBinary(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if msg.Type != TForward {
			t.Fatalf("%s: type %q", name, msg.Type)
		}
		got, err := DecodeForward(msg)
		if err != nil {
			t.Fatalf("%s: DecodeForward: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: body drift:\n got %+v\nwant %+v", name, got, want)
		}
		native := want.Kind == ForwardReplica || want.Kind == ForwardAck || want.Kind == ForwardTakeover
		if native == bytes.Contains(wire, []byte(`"kind"`)) {
			t.Fatalf("%s: native=%v but frame is % x", name, native, wire)
		}
		if native && want.Kind != ForwardAck && !bytes.HasSuffix(wire, grouplog.AppendRecord(nil, want.Record)) {
			t.Fatalf("%s: the record does not ride in the journal's encoding", name)
		}
		inner := want.Msg
		if want.Record.Wire != nil {
			inner = want.Record.Wire
		}
		id, _, flags := FrameTrace(inner)
		if msg.TraceID != id || msg.Sampled() != (flags&TraceSampled != 0) {
			t.Fatalf("%s: envelope trace %x sampled=%v, inner frame %x", name, msg.TraceID, msg.Sampled(), id)
		}
	}
	fwd, before := sampleForwards()["replica event"], EncodeCount()
	if _, err := EncodeForward(fwd); err != nil {
		t.Fatal(err)
	}
	if EncodeCount() != before {
		t.Fatal("EncodeForward counted against the per-recipient encode gate")
	}
}

// TestBareReplicaForwardIsAnEventRecord: a replica forward named only by
// Group and Msg carries them as an event record's key and frame.
func TestBareReplicaForwardIsAnEventRecord(t *testing.T) {
	inner := loggedFrame(false)
	wire, err := EncodeForward(ForwardBody{Kind: ForwardReplica, Group: "g", Msg: inner, ID: 4, From: "n0:1"})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeBinary(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := DecodeForward(msg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := grouplog.WALRecord{Kind: grouplog.WALEvent, Key: "g", Wire: inner}
	if got.Kind != ForwardReplica || got.ID != 4 || !reflect.DeepEqual(got.Record, want) {
		t.Fatalf("bare replica forward arrived as %+v", got)
	}
}

// TestReplicaForwardAllocs holds the replication hot path to one
// allocation, the frame on the owner: the replica decodes on its stack
// (DecodeForward). No JSON, no base64, no copy of the inner frame.
func TestReplicaForwardAllocs(t *testing.T) {
	fwd := sampleForwards()["replica event with floor"]
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := EncodeForward(fwd)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodeBinary(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeForward(msg); err != nil || got.ID != fwd.ID {
			t.Fatalf("decode: %+v %v", got, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("wrap + decode of a replica forward = %.0f allocs, want <= 1", allocs)
	}
}

// TestDecodeForwardStaysOnTheStack: a replica reads a forward, and an
// owner its ack, without a heap allocation — the body is a value the
// caller keeps, and the record and the strings alias the frame.
func TestDecodeForwardStaysOnTheStack(t *testing.T) {
	for _, name := range []string{"replica event with floor", "ack"} {
		wire, err := EncodeForward(sampleForwards()[name])
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			msg, err := DecodeBinary(wire)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeForward(msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: decode = %.0f allocs, want 0", name, allocs)
		}
	}
	if _, err := DecodeForward(MustNew(TChat, ChatBody{Text: "hi"})); !errors.Is(err, ErrBodyMismatch) {
		t.Fatalf("a chat read as a forward: %v", err)
	}
}

// hostileForwards are forward frames a peer must refuse: each is a
// valid envelope around a native body that is cut short, names a length
// it cannot back, or carries no record.
func hostileForwards() map[string][]byte {
	env := []byte{binMagic, flagNativeBody, typeCodes[TForward], 0, 0, 0, 0, 0, 0, 0}
	frame := func(body ...byte) []byte { return append(append([]byte(nil), env...), body...) }
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	return map[string][]byte{
		"unknown form":            frame(9, 1, 0),
		"ack cut in its id":       frame(fwdAck, 0x80),
		"ack cut before its key":  frame(fwdAck, 1, 0),
		"ack key past the frame":  frame(fwdAck, 1, 0, 9, 'g'),
		"ack head past the bytes": frame(fwdAck, 1, 0, 1, 'g', 0x80),
		"hostile from length":     append(frame(fwdReplica, 1), huge...),
		"from past the frame":     frame(fwdReplica, 1, 7, 'n'),
		"replica without record":  frame(fwdReplica, 1, 0),
		"takeover without record": frame(fwdTakeover, 0, 0),
		"json body cut short":     frame('{', '"', 'k'),
	}
}

// hostileRecords are forward frames whose shape is sound but whose
// record is not: the frame decodes, and DecodeForward refuses the record with
// grouplog.ErrRecord — which the receiving node counts.
func hostileRecords() map[string][]byte {
	good, err := EncodeForward(sampleForwards()["replica event with floor"])
	if err != nil {
		panic(err)
	}
	rec := grouplog.AppendRecord(nil, sampleForwards()["replica event with floor"].Record)
	head := good[:len(good)-len(rec)]
	with := func(record ...byte) []byte { return append(append([]byte(nil), head...), record...) }
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	takeover, err := EncodeForward(ForwardBody{Kind: ForwardTakeover, Record: grouplog.WALRecord{Kind: grouplog.WALPackage, Key: "g", Data: []byte("{}")}})
	if err != nil {
		panic(err)
	}
	return map[string][]byte{
		"record cut to its kind":       with(rec[0]),
		"record cut in its frame":      good[:len(good)-len(rec)/2],
		"unknown record kind":          with(0x7F, 0, 0, 0, 0, 0, 0),
		"record kind zero":             with(0, 0, 0, 0, 0, 0, 0),
		"key length past the bytes":    with(byte(grouplog.WALEvent), 0, 1, 1, 9, 'g'),
		"hostile wire length":          append(with(byte(grouplog.WALEvent), 0, 1, 1, 1, 'g', 0), huge...),
		"takeover record cut in a key": takeover[:len(takeover)-4],
	}
}

// TestForwardMalformed: hostile forward bytes error at the decode
// boundary, and a hostile record in a sound frame errors at DecodeForward with
// grouplog.ErrRecord. The hostile lengths name 2³² bytes — sizing
// anything from them would not return.
func TestForwardMalformed(t *testing.T) {
	for name, frame := range hostileForwards() {
		if msg, err := DecodeBinary(frame); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: decoded %+v, err = %v, want ErrDecode", name, msg, err)
		}
	}
	for name, frame := range hostileRecords() {
		msg, err := DecodeBinary(frame)
		if err != nil {
			t.Errorf("%s: the frame itself was refused: %v", name, err)
			continue
		}
		if body, err := DecodeForward(msg); !errors.Is(err, grouplog.ErrRecord) {
			t.Errorf("%s: decoded %+v, err = %v, want grouplog.ErrRecord", name, body, err)
		}
	}
}

// TestDecodeForwardJSONBodies: a binary-framed forward whose body rides
// as JSON decodes as that JSON, and one whose body is no JSON object is
// refused, not read as a native body. A forward frame without the
// native flag has no reader.
func TestDecodeForwardJSONBodies(t *testing.T) {
	frame := func(flags byte, body string) []byte {
		return append([]byte{binMagic, flags, typeCodes[TForward], 0, 0, 0, 0, 0, 0, 0}, body...)
	}
	for body, ok := range map[string]bool{`{"kind":"invite","to":"m1#1"}`: true, `"x"`: false, `7`: false, `[1]`: false} {
		msg, err := DecodeBinary(frame(flagNativeBody, body))
		var got ForwardBody
		if err == nil {
			got, err = DecodeForward(msg)
		}
		if (err == nil) != ok || (ok && got.To != "m1#1") {
			t.Errorf("body %s: %+v, %v", body, got, err)
		}
	}
	msg, err := DecodeBinary(frame(0, `{"kind":"invite","to":"m1#1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeForward(msg); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("a forward without the native flag read as %+v, %v", got, err)
	}
}

package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// sampleBody returns a representative body value for a type, nil for
// the body-less types and for TForward, whose samples are
// sampleForwards. Round-trip tests range AllTypes through it so a new
// type cannot ship without binary coverage.
func sampleBody(t Type) any {
	switch t {
	case THello:
		return HelloBody{Name: "Alice", Role: "chair", Priority: 5, WireVersion: WireVersion}
	case TWelcome:
		return WelcomeBody{MemberID: "m1", Token: "tok", WireVersion: WireVersion}
	case TNodeHello:
		return NodeHelloBody{MemberID: "m1#1", Name: "m1", Role: "chair", Priority: 5, Classes: []string{ClassFloor}, WireVersion: WireVersion}
	case TJoin, TLeave, TCreateGroup:
		return GroupBody{Group: "class"}
	case TFloorRequest:
		return FloorRequestBody{Mode: "lecture"}
	case TFloorEvent:
		return FloorEventBody{Mode: "lecture", Holder: "m1", Member: "m2", Event: "granted", QueuePosition: 2, QueueLen: 3}
	case TChat:
		return ChatBody{Text: "hello"}
	case TAnnotate:
		return AnnotateBody{Kind: "draw", Data: "x"}
	case TChatEvent, TAnnotateEvent:
		return SequencedBody{Seq: 9, Author: "m1", Kind: "text", Data: "hi",
			More: []SequencedBody{{Seq: 10, Author: "m1", Kind: "text", Data: "again"}}}
	case TSuspend, TResume:
		return SuspendBody{Member: "m2", Level: "minimal", Suspended: []string{"m2", "m3"}}
	case TAck:
		return SequencedBody{Seq: 1, Author: "m1", Kind: "text", Data: "hi"}
	case TErr:
		return ErrBody{Code: "no_floor", Detail: "nope"}
	default:
		return nil
	}
}

// TestBinaryRoundTripAllTypes drives every wire type through
// EncodeBinary → DecodeBinary and checks the envelope survives intact
// and the body decodes Into the sample it was made from: the native
// codecs are lossless. Forwards, read only by DecodeForward, are
// TestForwardRoundTrip's.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, typ := range AllTypes {
		if typ == TForward {
			continue
		}
		sample := sampleBody(typ)
		msg := MustNew(typ, sample)
		msg.Seq = 41
		msg.GSeq = 7
		msg.CSeq = 3
		msg.Class = ClassBoard
		msg.From = "m1"
		msg.To = "m2"
		msg.Group = "class"
		msg.State = true
		wire, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", typ, err)
		}
		if wire[0] != binMagic {
			t.Fatalf("%s: frame not recognized as binary", typ)
		}
		got, err := DecodeBinary(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if got.Type != typ || got.Seq != 41 || got.GSeq != 7 || got.CSeq != 3 ||
			got.Class != ClassBoard || got.From != "m1" || got.To != "m2" ||
			got.Group != "class" || !got.State {
			t.Fatalf("%s: envelope = %+v", typ, got)
		}
		if sample == nil {
			if len(got.Body) != 0 || got.bodyBin != nil {
				t.Fatalf("%s: a body-less message arrived with a body", typ)
			}
		} else if body := intoSample(t, got, sample); !reflect.DeepEqual(body, sample) {
			t.Fatalf("%s: body drift:\n got %+v\nwant %+v", typ, body, sample)
		}
	}
}

// TestBinaryNativeBodiesInto checks the native codecs decode through
// Into identically to their JSON twins.
func TestBinaryNativeBodiesInto(t *testing.T) {
	ev := MustNew(TChatEvent, sampleBody(TChatEvent))
	ev.Group = "g"
	wire, err := EncodeBinary(ev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(wire)
	if err != nil {
		t.Fatal(err)
	}
	var body SequencedBody
	if err := got.Into(&body); err != nil {
		t.Fatal(err)
	}
	want := sampleBody(TChatEvent).(SequencedBody)
	if body.Seq != want.Seq || body.Author != want.Author || body.Data != want.Data ||
		len(body.More) != 1 || body.More[0].Data != "again" {
		t.Fatalf("body = %+v", body)
	}
	// Wrong target type must error with ErrBodyMismatch, not panic.
	var wrong ChatBody
	if err := got.Into(&wrong); !errors.Is(err, ErrBodyMismatch) {
		t.Fatalf("wrong target: %v", err)
	}
}

// TestBinaryReencodeReusesNativeBody checks the bodyBin path: a
// natively-decoded frame re-encodes byte-identically without
// re-marshalling the body.
func TestBinaryReencodeReusesNativeBody(t *testing.T) {
	msg := MustNew(TFloorEvent, sampleBody(TFloorEvent))
	msg.Group = "g"
	msg.Class = ClassFloor
	wire, err := EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(wire)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeBinary(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, again) {
		t.Fatalf("re-encode drift:\n was % x\n now % x", wire, again)
	}
}

// TestBinaryNonNativeCarrierStaysJSON pins the regression where an ack
// carrying a SequencedBody payload was flagged native: the decoder
// picks its reader by message type, so only types with their own codec
// may set the native flag.
func TestBinaryNonNativeCarrierStaysJSON(t *testing.T) {
	ack := MustNew(TAck, SequencedBody{Seq: 1, Author: "m1", Kind: "text", Data: "hi"})
	ack.Seq = 3
	wire, err := EncodeBinary(ack)
	if err != nil {
		t.Fatal(err)
	}
	if wire[1]&flagNativeBody != 0 {
		t.Fatal("ack frame flagged native")
	}
	got, err := DecodeBinary(wire)
	if err != nil {
		t.Fatal(err)
	}
	var body SequencedBody
	if err := got.Into(&body); err != nil || body.Data != "hi" {
		t.Fatalf("body = %+v (%v)", body, err)
	}
}

// TestBinaryClassEscape covers class strings outside AllClasses, which
// ride length-prefixed behind the escape code.
func TestBinaryClassEscape(t *testing.T) {
	msg := MustNew(TChat, ChatBody{Text: "x"})
	msg.Class = "exotic"
	wire, err := EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != "exotic" {
		t.Fatalf("class = %q", got.Class)
	}
}

// TestBinaryTruncation feeds the decoder every proper prefix of valid
// frames: each must error cleanly (never panic, never succeed).
func TestBinaryTruncation(t *testing.T) {
	for _, typ := range []Type{TChat, TChatEvent, TFloorEvent, TSuspend, TJoin, THello} {
		msg := MustNew(typ, sampleBody(typ))
		msg.Seq = 99
		msg.From = "member-with-a-name"
		msg.Group = "group"
		wire, err := EncodeBinary(msg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(wire); n++ {
			got, err := DecodeBinary(wire[:n])
			if err == nil && (len(got.Body) > 0 || got.bodyBin != nil) {
				// The one decodable prefix is the cut at the body
				// boundary — indistinguishable from a body-less frame.
				// Anything that yields a body must have been the whole
				// frame.
				t.Fatalf("%s: prefix %d/%d decoded with body", typ, n, len(wire))
			}
		}
	}
}

// TestBinaryMalformed covers the corrupt-frame classes the fuzzer also
// explores: wrong magic, unknown codes, oversized lengths and counts.
// Every case must produce ErrDecode without panicking or allocating
// ahead of the frame's real size.
func TestBinaryMalformed(t *testing.T) {
	valid, err := EncodeBinary(MustNew(TChatEvent, sampleBody(TChatEvent)))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":                {},
		"short":                {binMagic, 0},
		"not binary":           {'{', '}'},
		"unknown type code":    {binMagic, 0, 0xF0, 0, 0, 0, 0, 0, 0, 0},
		"unknown class code":   {binMagic, 0, 0, 0, 0, 0, 0xB0, 0, 0, 0},
		"native flag no codec": {binMagic, flagNativeBody, typeCodes[TJoin], 0, 0, 0, 0, 0, 0, 0, 1},
		"native flag empty":    {binMagic, flagNativeBody, typeCodes[TChat], 0, 0, 0, 0, 0, 0, 0},
		"lp string past frame": {binMagic, 0, 0, 0, 0, 0, 0, 0xFF, 0x01, 'x'},
		"huge more count": append(append([]byte{binMagic, flagNativeBody, typeCodes[TChatEvent]},
			0, 0, 0, 0, 0, 0, 0), // envelope: seqs, class, from, to, group
			// native SequencedBody: seq 0, empty author/kind/data, then a
			// More count far past the remaining bytes.
			0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F),
		"truncated varint": {binMagic, 0, 0, 0x80},
	}
	for name, frame := range cases {
		msg, err := DecodeBinary(frame)
		if err == nil {
			t.Errorf("%s: decoded %+v", name, msg)
		} else if !errors.Is(err, ErrDecode) {
			t.Errorf("%s: err = %v, want ErrDecode", name, err)
		}
	}
	// And the valid frame still parses after all that.
	if _, err := DecodeBinary(valid); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeBinaryCountsEncodes pins the encode-once accounting: each
// EncodeBinary bumps the counter the benchmarks gate.
func TestEncodeBinaryCountsEncodes(t *testing.T) {
	before := EncodeCount()
	for _, typ := range []Type{TChat, THello} {
		if _, err := EncodeBinary(MustNew(typ, sampleBody(typ))); err != nil {
			t.Fatal(err)
		}
	}
	if got := EncodeCount() - before; got != 2 {
		t.Fatalf("EncodeCount delta = %d, want 2", got)
	}
}

// FuzzDecodeBinary throws arbitrary bytes at the binary decoder, the
// reader of every frame a connection carries, its first (the hello)
// included. The invariant under fuzz: DecodeBinary never panics, takes
// no frame without the magic (an older client's JSON hello is refused),
// and anything it accepts must survive a re-encode → re-decode round
// trip with the envelope intact (the decoder and encoder agree on the
// format).
func FuzzDecodeBinary(f *testing.F) {
	for _, typ := range []Type{THello, TNodeHello, TWelcome, TErr} {
		msg := MustNew(typ, sampleBody(typ)) // as a handshake sends it
		msg.Seq = 1
		if wire, err := EncodeBinary(msg); err == nil {
			f.Add(wire)
		}
	}
	for _, typ := range AllTypes {
		msg := MustNew(typ, sampleBody(typ))
		msg.Seq = 12
		msg.Class = ClassFloor
		msg.From = "m1"
		msg.Group = "g"
		if wire, err := EncodeBinary(msg); err == nil {
			f.Add(wire)
		}
	}
	for _, fwd := range sampleForwards() {
		if wire, err := EncodeForward(fwd); err == nil {
			f.Add(wire)
		}
	}
	for _, frame := range hostileForwards() {
		f.Add(frame)
	}
	for _, frame := range hostileRecords() {
		f.Add(frame)
	}
	f.Add([]byte{binMagic})
	f.Add([]byte{binMagic, flagNativeBody | flagState, 14, 0x80, 0x01})
	f.Add([]byte(`{"type":"hello","seq":1,"body":{"name":"Alice","role":"chair","priority":5,"wire_version":2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if data[0] != binMagic {
			t.Fatalf("accepted a frame without the magic: % x", data)
		}
		wire, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("accepted frame failed re-encode: %v\n frame % x", err, data)
		}
		again, err := DecodeBinary(wire)
		if err != nil {
			t.Fatalf("re-encoded frame failed decode: %v\n frame % x", err, wire)
		}
		if again.Type != msg.Type || again.Seq != msg.Seq || again.GSeq != msg.GSeq ||
			again.CSeq != msg.CSeq || again.Class != msg.Class || again.From != msg.From ||
			again.To != msg.To || again.Group != msg.Group || again.State != msg.State {
			t.Fatalf("round-trip envelope drift:\n was %+v\n now %+v", msg, again)
		}
	})
}

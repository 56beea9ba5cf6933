package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// sampleBody returns a representative body value for a type, nil for
// the body-less types. Round-trip tests range AllTypes through it so a
// new type cannot ship without binary coverage.
func sampleBody(t Type) any {
	switch t {
	case THello:
		return HelloBody{Name: "Alice", Role: "chair", Priority: 5, WireVersion: WireVersion}
	case TWelcome:
		return WelcomeBody{MemberID: "m1", Token: "tok", WireVersion: WireVersion}
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
	case TForward:
		return sampleForwards()["replica with floor"]
	default:
		return nil
	}
}

// TestBinaryRoundTripAllTypes drives every wire type through
// EncodeBinary → DecodeAny and checks the envelope survives intact and
// the body JSON-normalizes to the same bytes the JSON path produces.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, typ := range AllTypes {
		msg := MustNew(typ, sampleBody(typ))
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
		got, err := DecodeAny(wire)
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if got.Type != typ || got.Seq != 41 || got.GSeq != 7 || got.CSeq != 3 ||
			got.Class != ClassBoard || got.From != "m1" || got.To != "m2" ||
			got.Group != "class" || !got.State {
			t.Fatalf("%s: envelope = %+v", typ, got)
		}
		// The JSON re-encode of the decoded frame must carry the same
		// body the JSON path would have: transcode is lossless.
		jsonWire, err := Encode(got)
		if err != nil {
			t.Fatalf("%s: transcode: %v", typ, err)
		}
		direct, err := Encode(msg)
		if err != nil {
			t.Fatalf("%s: json encode: %v", typ, err)
		}
		if !bytes.Equal(jsonWire, direct) {
			t.Fatalf("%s: transcode drift:\n bin→json: %s\n    json: %s", typ, jsonWire, direct)
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
	got, err := DecodeAny(wire)
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

// TestEncodeBinaryCountsEncodes pins the encode-once accounting: both
// formats bump the same counter the benchmarks gate.
func TestEncodeBinaryCountsEncodes(t *testing.T) {
	before := EncodeCount()
	if _, err := EncodeBinary(MustNew(TChat, ChatBody{Text: "x"})); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(MustNew(TChat, ChatBody{Text: "x"})); err != nil {
		t.Fatal(err)
	}
	if got := EncodeCount() - before; got != 2 {
		t.Fatalf("EncodeCount delta = %d, want 2", got)
	}
}

// TestDecodeAnyDispatch checks the one-byte format sniff both ways.
func TestDecodeAnyDispatch(t *testing.T) {
	msg := MustNew(TChat, ChatBody{Text: "x"})
	msg.Group = "g"
	bin, err := EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if js[0] == binMagic {
		t.Fatal("JSON frame sniffed as binary")
	}
	for _, wire := range [][]byte{bin, js} {
		got, err := DecodeAny(wire)
		if err != nil {
			t.Fatal(err)
		}
		var body ChatBody
		if got.Type != TChat || got.Into(&body) != nil || body.Text != "x" {
			t.Fatalf("DecodeAny(% x) = %+v", wire[:3], got)
		}
	}
}

// FuzzDecodeBinary throws arbitrary bytes at the binary decoder. The
// invariant under fuzz: DecodeBinary never panics, and anything it
// accepts must survive a re-encode → re-decode round trip with the
// envelope intact (the decoder and encoder agree on the format).
func FuzzDecodeBinary(f *testing.F) {
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
	f.Add([]byte(`{"type":"chat","body":{"text":"hi"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeAny(data)
		if err != nil {
			return
		}
		if data[0] != binMagic {
			return
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

package protocol

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := MustNew(THello, HelloBody{Name: "Alice", Role: "participant", Priority: 2})
	msg.Seq = 7
	msg.From = "alice"
	msg.Group = "class"
	wire, err := EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != THello || got.Seq != 7 || got.From != "alice" || got.Group != "class" {
		t.Errorf("envelope = %+v", got)
	}
	var body HelloBody
	if err := got.Into(&body); err != nil {
		t.Fatal(err)
	}
	if body.Name != "Alice" || body.Priority != 2 {
		t.Errorf("body = %+v", body)
	}
}

// TestDecodeErrors: bytes that are no binary frame — garbage, or a JSON
// envelope — are refused.
func TestDecodeErrors(t *testing.T) {
	for _, wire := range []string{"{not json", `{"seq":1}`, `{"type":"hello","seq":1,"body":{"name":"a"}}`} {
		if _, err := DecodeBinary([]byte(wire)); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: %v", wire, err)
		}
	}
}

func TestIntoErrors(t *testing.T) {
	msg := Message{Type: TBye}
	var body HelloBody
	if err := msg.Into(&body); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("no body: %v", err)
	}
	bad := Message{Type: THello, Body: []byte(`{"priority":"high"}`)}
	if err := bad.Into(&body); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("wrong field type: %v", err)
	}
	var fwd ForwardBody
	if err := (Message{Type: TForward, Body: []byte(`{"kind":"invite"}`)}).Into(&fwd); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("a forward read through Into: %+v, %v", fwd, err)
	}
}

func TestNewNilBody(t *testing.T) {
	msg, err := New(TBye, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Body) != 0 {
		t.Errorf("body = %s", msg.Body)
	}
	wire, _ := EncodeBinary(msg)
	got, err := DecodeBinary(wire)
	if err != nil || got.Type != TBye || len(got.Body) != 0 {
		t.Errorf("round trip: %+v %v", got, err)
	}
}

func TestAllBodyTypesRoundTrip(t *testing.T) {
	cases := []struct {
		typ  Type
		body any
	}{
		{THello, HelloBody{Name: "n", Role: "chair", Priority: 5}},
		{TWelcome, WelcomeBody{MemberID: "m", ServerTimeNanos: 12345}},
		{TJoin, GroupBody{Group: "g"}},
		{TFloorRequest, FloorRequestBody{Mode: "equal-control", Target: "bob"}},
		{TAck, FloorDecisionBody{Granted: true, Mode: "free-access", Suspended: []string{"carol"}}},
		{TTokenPass, TokenPassBody{To: "bob"}},
		{TFloorEvent, FloorEventBody{Mode: "equal-control", Holder: "alice", Event: "granted"}},
		{TFloorEvent, FloorEventBody{Mode: "equal-control", Holder: "alice", Event: "queue", QueuePosition: 2, QueueLen: 3}},
		{TInvite, InviteBody{Group: "g", To: "bob"}},
		{TInviteEvent, InviteEventBody{InviteID: 3, Group: "g", From: "alice"}},
		{TInviteReply, InviteReplyBody{InviteID: 3, Accept: true}},
		{TChat, ChatBody{Text: "hello"}},
		{TAnnotate, AnnotateBody{Kind: "draw", Data: "stroke"}},
		{TChatEvent, SequencedBody{Seq: 9, Author: "a", Kind: "text", Data: "hi"}},
		{TReplay, ReplayBody{After: 4}},
		{TBackfill, BackfillBody{Group: "g", Afters: map[string]int64{ClassFloor: 17, ClassBoard: 4}, BoardSeq: 4}},
		{TSubscribe, SubscribeBody{Classes: []string{ClassFloor, ClassBoard}}},
		{TModeSwitch, ModeSwitchBody{Mode: "moderated-queue", Pin: true}},
		{TSnapshot, SnapshotBody{
			Seq: 21, ClassSeqs: map[string]int64{ClassFloor: 7, ClassBoard: 14},
			Mode: "equal-control", Holder: "alice",
			QueuePos: 1, QueueLen: 2, Suspended: []string{"carol"},
			Level: "degraded", Pinned: true,
			Board:   []SequencedBody{{Seq: 2, Author: "a", Kind: "text", Data: "hi"}},
			Invites: []InviteEventBody{{InviteID: 5, Group: "g", From: "alice"}},
		}},
		{TClockSync, ClockSyncBody{ClientSendNanos: 1, MasterNanos: 2}},
		{TLights, LightsBody{Lights: map[string]string{"alice": "green"}}},
		{TSuspend, SuspendBody{Member: "carol", Level: "degraded", Suspended: []string{"carol", "dave"}}},
		{TPresent, PresentBody{StartGlobalNanos: 99, Objects: []PresentObject{{ID: "v", Kind: "video", DurationNanos: 10}}}},
		{TErr, ErrBody{Code: "floor_busy", Detail: "position 2"}},
	}
	for _, c := range cases {
		wire, err := EncodeBinary(MustNew(c.typ, c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		got, err := DecodeBinary(wire)
		if err != nil {
			t.Fatalf("%s decode: %v", c.typ, err)
		}
		if got.Type != c.typ {
			t.Errorf("type = %s, want %s", got.Type, c.typ)
		}
		if body := intoSample(t, got, c.body); !reflect.DeepEqual(body, c.body) {
			t.Errorf("%s: body drift:\n got %+v\nwant %+v", c.typ, body, c.body)
		}
	}
}

// intoSample decodes msg's body Into a fresh value of sample's type and
// returns it as that type's value.
func intoSample(t *testing.T, msg Message, sample any) any {
	t.Helper()
	out := reflect.New(reflect.TypeOf(sample))
	if err := msg.Into(out.Interface()); err != nil {
		t.Fatalf("%s: into: %v", msg.Type, err)
	}
	return out.Elem().Interface()
}

func TestNanosRoundTrip(t *testing.T) {
	now := time.Date(2001, 4, 16, 9, 30, 0, 123456789, time.UTC)
	if got := FromNanos(Nanos(now)); !got.Equal(now) {
		t.Errorf("round trip: %v vs %v", got, now)
	}
}

func TestNewRejectsUnmarshalableBody(t *testing.T) {
	if _, err := New(TChat, make(chan int)); err == nil {
		t.Error("channel body should fail to marshal")
	}
}

func TestMustNewPanicsOnBadBody(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on unmarshalable body")
		}
	}()
	MustNew(TChat, make(chan int))
}

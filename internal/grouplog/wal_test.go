package grouplog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleRecords is one record of every kind, shaped the way the server
// writes them.
func sampleRecords() []WALRecord {
	event := WALRecord{Kind: WALEvent, Key: "g", GSeq: 7, CSeq: 3, Class: "floor", State: true}
	event.SetWire([]byte{0xDF, 0x03, 0x09, 0, 7, 3, 1, 0, 0, 1, 'g', 0x00, 0xFF}) // binary: not valid UTF-8, let alone JSON
	return []WALRecord{
		event,
		{Kind: WALGroup, Key: "g", Data: json.RawMessage(`{"chair":"a#1","members":[{"id":"a#1","name":"a","role":"chair","priority":5}]}`)},
		{Kind: WALFloor, Key: "g", Data: json.RawMessage(`{"mode":"equal_control","holder":"a#1","queue":["b#2"]}`)},
		{Kind: WALMember, Key: "a#1", Data: json.RawMessage(`{"info":{"id":"a#1","name":"a","role":"chair","priority":5},"token":"tok"}`)},
		{Kind: WALMemberDrop, Key: "b#2"},
		{Kind: WALBoardHead, Key: "g", GSeq: 41},
		{Kind: WALNextID, GSeq: 9},
	}
}

func replayAll(t *testing.T, dir string) []WALRecord {
	t.Helper()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got []WALRecord
	if err := w.Replay(func(rec WALRecord) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWALRoundTripEveryKind: every record kind survives Append → Close →
// reopen → Replay intact and in write order, and an event's wire bytes
// come back byte for byte through the one field that carries them.
func TestWALRoundTripEveryKind(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Kind, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(want[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	got := replayAll(t, dir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay drift:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(got[0].WireBytes(), want[0].Wire) {
		t.Fatalf("wire bytes = % x", got[0].WireBytes())
	}
}

// TestWALRotatesAtSegmentBytes: a segment that has reached segBytes is
// closed and the next record opens a new one; Stats counts both, and
// replay reads across the boundary in order. A reopened WAL appends to
// a fresh segment after the last, never into an old one.
func TestWALRotatesAtSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 1; i <= n; i++ {
		if err := w.Append(WALRecord{Kind: WALBoardHead, Key: "g", GSeq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments < 3 || st.Segments != len(segs) {
		t.Fatalf("stats say %d segments, directory holds %d; want several", st.Segments, len(segs))
	}
	var onDisk int64
	for _, idx := range segs {
		fi, err := os.Stat(filepath.Join(dir, segName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		// A segment may overshoot by the record that crossed the line,
		// never by more.
		if fi.Size() >= 256+64 {
			t.Fatalf("segment %d is %d bytes against a 256-byte threshold", idx, fi.Size())
		}
		onDisk += fi.Size()
	}
	if st.Bytes != onDisk {
		t.Fatalf("stats say %d bytes, directory holds %d", st.Bytes, onDisk)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(WALRecord{Kind: WALBoardHead, Key: "g", GSeq: n + 1}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) != len(segs)+1 || after[len(after)-1] != segs[len(segs)-1]+1 {
		t.Fatalf("reopen appended into segments %v (were %v), want one new segment after the last", after, segs)
	}
	got := replayAll(t, dir)
	if len(got) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(got), n+1)
	}
	for i, rec := range got {
		if rec.GSeq != int64(i+1) {
			t.Fatalf("record %d replayed out of order: %+v", i, rec)
		}
	}
}

// TestWALSegmentErrorsSurface: a segment that cannot be synced or
// closed fails the call that retires it — the Append whose rotation
// tripped over it, and Close — instead of being dropped. The WAL gives a
// failed segment up and the next Append starts a fresh one.
func TestWALSegmentErrorsSurface(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), 1) // every Append past the first rotates
	if err != nil {
		t.Fatal(err)
	}
	rec := WALRecord{Kind: WALBoardHead, Key: "g", GSeq: 1}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.file.Close() // the segment dies under the WAL
	if err := w.Append(rec); err == nil {
		t.Fatal("an Append whose rotation could not sync or close the segment succeeded")
	}
	if err := w.Append(rec); err != nil {
		t.Fatalf("the Append after a failed rotation: %v", err)
	}
	w.file.Close()
	if err := w.Close(); err == nil {
		t.Fatal("Close of a segment that could not be synced or closed succeeded")
	}
}

// TestWALCheckpointTruncates: a checkpoint leaves exactly one segment
// holding the restated records, older segments are deleted, and appends
// after it land behind the snapshot.
func TestWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := w.Append(WALRecord{Kind: WALBoardHead, Key: "g", GSeq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := sampleRecords()
	if err := w.Checkpoint(snapshot); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Fatalf("%d segments after a checkpoint, want 1", st.Segments)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("segments on disk after a checkpoint: %v", segs)
	}
	tail := WALRecord{Kind: WALNextID, GSeq: 99}
	if err := w.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(snapshot); err == nil {
		t.Fatal("checkpoint after close succeeded")
	}
	if got, want := replayAll(t, dir), append(snapshot, tail); !reflect.DeepEqual(got, want) {
		t.Fatalf("after checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// TestWALReplayStopsAtUndecodableLine pins where replay stops today: at
// the first line of a segment that does not decode — a torn tail in the
// common case — dropping the rest of THAT segment and carrying on with
// the next one. (ROADMAP item 3 replaces the silent stop with a loud
// one for anything but a torn final record.)
func TestWALReplayStopsAtUndecodableLine(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.Append(WALRecord{Kind: WALBoardHead, Key: "g", GSeq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"kind\":\"board_head\",\"key\":\"g\",\"gs\n" + `{"kind":"board_head","key":"g","gseq":5}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A later segment, as a restart after the crash would have written.
	w2, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(WALRecord{Kind: WALBoardHead, Key: "g", GSeq: 6}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	var seqs []int64
	for _, rec := range replayAll(t, dir) {
		seqs = append(seqs, rec.GSeq)
	}
	if want := []int64{1, 2, 3, 6}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("replayed %v, want %v: stop at the torn line, skip what follows it in that segment, resume at the next", seqs, want)
	}
}

package grouplog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleRecords is one record of every kind, shaped the way the server
// writes them, plus an event without a side payload.
func sampleRecords() []WALRecord {
	event := WALRecord{Kind: WALEvent, Key: "g", GSeq: 7, CSeq: 3, Class: "floor", State: true, Data: []byte{5, 'e', 'q', 'u', 'a', 'l', 0, 0, 1, 0, 0}}
	event.SetWire([]byte{0xDF, 0x03, 0x09, 0, 7, 3, 1, 0, 0, 1, 'g', 0x00, 0xFF}) // binary: not valid UTF-8, let alone JSON
	board := WALRecord{Kind: WALEvent, Key: "g", GSeq: 8, CSeq: 1, Class: "board"}
	board.SetWire([]byte{0xDF, 0x01, 0x07, 0, 8, 1, 2, 0, 0, 1, 'g'})
	return []WALRecord{
		event,
		board,
		{Kind: WALPackage, Key: "g", Data: []byte(`{"key":"g","epoch":0,"chair":"a#1","members":[{"id":"a#1","name":"a","role":"chair","priority":5}]}`)},
		{Kind: WALMemberDrop, Key: "b#2"},
		{Kind: WALNextID, GSeq: 9},
	}
}

func replayAll(t *testing.T, dir string) []WALRecord {
	t.Helper()
	got, err := replayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func replayDir(dir string) ([]WALRecord, error) {
	w, err := OpenWAL(dir, 0)
	if err != nil {
		return nil, err
	}
	var got []WALRecord
	err = w.Replay(func(rec WALRecord) error { got = append(got, rec); return nil })
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return got, err
}

// recordSize is the bytes rec takes in a segment, header included.
func recordSize(rec WALRecord) int64 {
	return int64(recHeader + len(AppendRecord(nil, rec)))
}

// TestWALRoundTripEveryKind: every record kind survives Append → Close →
// reopen → Replay intact and in write order; an event's wire bytes and
// side payload come back byte for byte. A segment opens with the magic,
// and a kind the journal does not know is refused, not written.
func TestWALRoundTripEveryKind(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatalf("append kind %d: %v", rec.Kind, err)
		}
	}
	if err := w.Append(WALRecord{Kind: WALNextID + 1, Key: "g"}); err == nil {
		t.Fatal("a record of an unknown kind was appended")
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
	for i, rec := range got {
		// What a replayed event leaves in a log pins its own record, not
		// the segment read whole.
		if c := cap(rec.Wire); int64(c) > recordSize(rec) {
			t.Fatalf("record %d's wire bytes reach %d bytes of buffer, more than the record's %d", i, c, recordSize(rec))
		}
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(segMagic))
	for _, rec := range want {
		size += recordSize(rec)
	}
	if !strings.HasPrefix(string(seg), segMagic) || int64(len(seg)) != size {
		t.Fatalf("segment is %d bytes opening %q, want %d opening the magic", len(seg), seg[:8], size)
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
	const n = 80
	for i := 1; i <= n; i++ {
		if err := w.Append(WALRecord{Kind: WALNextID, Key: "g", GSeq: int64(i)}); err != nil {
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
		if fi.Size() >= 256+16 {
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
	if err := w2.Append(WALRecord{Kind: WALNextID, Key: "g", GSeq: n + 1}); err != nil {
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
// failed segment up and the next Append starts a fresh one. A disk that
// fills as a segment opens fails the Append (or Checkpoint) that
// rotated into it, and no record ever lands in a segment without its
// magic: once space is freed the next Append writes the segment afresh,
// and the journal replays clean.
func TestWALSegmentErrorsSurface(t *testing.T) {
	rec := WALRecord{Kind: WALNextID, GSeq: 1}
	t.Run("sync or close fails", func(t *testing.T) {
		w, err := OpenWAL(t.TempDir(), 1) // every Append past the first rotates
		if err != nil {
			t.Fatal(err)
		}
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
	})
	t.Run("magic write fails", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("needs /dev/full to fail a write with ENOSPC")
		}
		dir := t.TempDir()
		w, err := OpenWAL(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		next := func(i int) WALRecord { return WALRecord{Kind: WALNextID, GSeq: int64(i)} }
		if err := w.Append(next(1)); err != nil {
			t.Fatal(err)
		}
		// The next segment is a full disk.
		full := filepath.Join(dir, segName(1))
		if err := os.Symlink("/dev/full", full); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(next(2)); err == nil {
			t.Fatal("an Append into a segment whose magic could not be written succeeded")
		}
		if err := w.Checkpoint([]WALRecord{next(2)}); err == nil {
			t.Fatal("a Checkpoint into a segment whose magic could not be written succeeded")
		}
		if err := w.Append(next(3)); err == nil {
			t.Fatal("an Append into a segment whose magic could not be written succeeded")
		}
		if err := os.Remove(full); err != nil { // space is freed
			t.Fatal(err)
		}
		for _, i := range []int{4, 5} {
			if err := w.Append(next(i)); err != nil {
				t.Fatalf("append %d once space is freed: %v", i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, rec := range replayAll(t, dir) {
			got = append(got, rec.GSeq)
		}
		if !reflect.DeepEqual(got, []int64{1, 4, 5}) {
			t.Fatalf("replayed %v, want the records that were appended: [1 4 5]", got)
		}
	})
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
	for i := 1; i <= 80; i++ {
		if err := w.Append(WALRecord{Kind: WALNextID, GSeq: int64(i)}); err != nil {
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

// TestWALCheckpointReportsUndeletableSegment: an older segment the
// checkpoint cannot delete fails the call, but only after the snapshot
// is synced — the new segment holds every record — and Stats still
// counts what is left on disk.
func TestWALCheckpointReportsUndeletableSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALRecord{Kind: WALNextID, GSeq: 1}); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory under a segment's name cannot be removed.
	stuck := filepath.Join(dir, segName(0))
	if err := os.Remove(stuck); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(stuck, "pinned"), 0o755); err != nil {
		t.Fatal(err)
	}
	snapshot := sampleRecords()
	err = w.Checkpoint(snapshot)
	if err == nil || !strings.Contains(err.Error(), segName(0)) {
		t.Fatalf("checkpoint over an undeletable segment: %v", err)
	}
	if st := w.Stats(); st.Segments != 2 {
		t.Fatalf("stats count %d segments, want the snapshot and the one left behind", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(stuck); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); !reflect.DeepEqual(got, snapshot) {
		t.Fatalf("the synced snapshot replays as %+v", got)
	}
}

// TestWALReplayRefusesDamageAndCutsTornTail: replay tells a torn tail —
// the last segment's final record incomplete or failing its checksum,
// as a crash mid-append leaves it — from damage anywhere else. A torn
// tail is cut off and synced, so a restart that appends and restarts
// again replays clean. Anything else — a flipped bit in a record that
// is not the tail, a flipped length anywhere (the last segment
// included), a truncated record in a segment that is not the last, a
// segment in the old JSON-lines format — refuses the replay with the
// segment file and the offset of the bad record, after handing over
// only the records before it.
func TestWALReplayRefusesDamageAndCutsTornTail(t *testing.T) {
	next := func(i int) WALRecord { return WALRecord{Kind: WALNextID, GSeq: int64(i)} }
	// Segment 0 holds records 1–3, segment 1 records 4 and 5.
	build := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		for _, seg := range [][]int{{1, 2, 3}, {4, 5}} {
			w, err := OpenWAL(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range seg {
				if err := w.Append(next(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	seqs := func(recs []WALRecord) []int64 {
		var out []int64
		for _, rec := range recs {
			out = append(out, rec.GSeq)
		}
		return out
	}
	recSize := recordSize(next(1))
	magic := int64(len(segMagic))

	torn := []struct {
		name   string
		damage func(seg1 string) error
		kept   []int64
	}{
		{"incomplete final record", func(seg1 string) error { return os.Truncate(seg1, magic+2*recSize-3) }, []int64{1, 2, 3, 4}},
		{"final record fails its checksum", func(seg1 string) error { return flipByte(seg1, magic+2*recSize-1) }, []int64{1, 2, 3, 4}},
		{"incomplete record header", func(seg1 string) error { return os.Truncate(seg1, magic+recSize+3) }, []int64{1, 2, 3, 4}},
		{"torn magic", func(seg1 string) error { return os.Truncate(seg1, 5) }, []int64{1, 2, 3}},
	}
	for _, tc := range torn {
		t.Run("torn tail/"+tc.name, func(t *testing.T) {
			dir := build(t)
			if err := tc.damage(filepath.Join(dir, segName(1))); err != nil {
				t.Fatal(err)
			}
			if got := seqs(replayAll(t, dir)); !reflect.DeepEqual(got, tc.kept) {
				t.Fatalf("replayed %v, want the records before the tear %v", got, tc.kept)
			}
			w, err := OpenWAL(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(next(6)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := seqs(replayAll(t, dir)), append(tc.kept, 6); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a restart that appended, replayed %v, want %v", got, want)
			}
		})
	}

	refused := []struct {
		name   string
		damage func(dir string) error
		seg    int
		offset int64
		before []int64
	}{
		{"bit flip mid-segment", func(dir string) error {
			return flipByte(filepath.Join(dir, segName(0)), magic+recSize+recHeader+1)
		}, 0, magic + recSize, []int64{1}},
		{"torn record in a segment that is not the last", func(dir string) error {
			return os.Truncate(filepath.Join(dir, segName(0)), magic+2*recSize+4)
		}, 0, magic + 2*recSize, []int64{1, 2}},
		{"flipped length", func(dir string) error {
			return flipByte(filepath.Join(dir, segName(0)), magic)
		}, 0, magic, nil},
		// Raised past the end, the length would pass for a torn tail if
		// the header did not vouch for it.
		{"flipped length in the last segment, mid-segment", func(dir string) error {
			return flipByte(filepath.Join(dir, segName(1)), magic+1)
		}, 1, magic, []int64{1, 2, 3}},
		{"flipped payload checksum of the last segment's final record", func(dir string) error {
			return flipByte(filepath.Join(dir, segName(1)), magic+recSize+4)
		}, 1, magic + recSize, []int64{1, 2, 3, 4}},
		{"segment in the old JSON-lines format", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, segName(1)), []byte(`{"kind":"next_id","gseq":4}`+"\n"), 0o644)
		}, 1, 0, []int64{1, 2, 3}},
	}
	for _, tc := range refused {
		t.Run("refused/"+tc.name, func(t *testing.T) {
			dir := build(t)
			if err := tc.damage(dir); err != nil {
				t.Fatal(err)
			}
			got, err := replayDir(dir)
			want := fmt.Sprintf("%s at offset %d", filepath.Join(dir, segName(tc.seg)), tc.offset)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("replay error %v, want one naming %q", err, want)
			}
			if !reflect.DeepEqual(seqs(got), tc.before) {
				t.Fatalf("replayed %v before refusing, want %v", seqs(got), tc.before)
			}
		})
	}
}

// flipByte inverts the bits of the byte at off in the file at path.
func flipByte(path string, off int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b[off] ^= 0xFF
	return os.WriteFile(path, b, 0o644)
}

// FuzzWALReplay feeds one arbitrary segment file to OpenWAL + Replay:
// it must return records or an error naming the segment, never panic,
// and never size an allocation from a length it did not check. When it
// returns records, a second replay (after any torn tail was cut) must
// return the same records without error.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte(segMagic))
	// A length far past the maximum, under a header that checks.
	huge := binary.LittleEndian.AppendUint32([]byte(segMagic), 0x7fffffff)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	f.Add(binary.LittleEndian.AppendUint32(huge, crc32.Checksum(huge[len(segMagic):], castagnoli)))
	f.Add([]byte(`{"kind":"event","key":"g","gseq":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replayDir(dir)
		if err != nil {
			if !strings.Contains(err.Error(), segName(0)) {
				t.Fatalf("replay error does not name the segment: %v", err)
			}
			return
		}
		var carried int
		for _, rec := range got {
			carried += len(rec.Key) + len(rec.Class) + len(rec.Wire) + len(rec.Data)
		}
		if carried > len(data) {
			t.Fatalf("%d records carry %d bytes out of a %d-byte segment", len(got), carried, len(data))
		}
		again, err := replayDir(dir)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("second replay: %v, %d records against %d", err, len(again), len(got))
		}
	})
}

package grouplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"unsafe"
)

// DefaultSegmentBytes is the WAL segment rotation threshold when the
// caller does not choose one: small enough that a checkpoint reclaims
// space promptly, large enough that rotation stays off the append path
// at classroom event rates.
const DefaultSegmentBytes = 1 << 20

// WALKind is a record's kind, its first payload byte.
type WALKind uint8

// WAL record kinds. An event is one logged append: the stamped frame
// and its sequence coordinates, replayed via AppendRaw so GSeq/CSeq
// survive a restart exactly, plus what the writer keeps beside it in
// Data. A package is one partition key's package in Data, in the
// writer's encoding. Member drops and the ID counter are what no
// package states.
const (
	WALEvent WALKind = 1 + iota
	WALPackage
	WALMemberDrop
	WALNextID
)

// WALRecord is one journal record, and what a replica or takeover
// forward carries to a peer. WALEvent uses every field (Data
// optional); WALPackage uses Key and Data; WALMemberDrop uses Key;
// WALNextID uses GSeq as the value.
type WALRecord struct {
	Kind  WALKind
	Key   string
	GSeq  int64
	CSeq  int64
	Class string
	State bool
	Wire  []byte
	Data  []byte
}

// PartitionKey is the log key a record changes: a member drop's Key is
// the member's ID, and its key is MemberKey's.
func (r WALRecord) PartitionKey() string {
	if r.Kind == WALMemberDrop {
		return MemberKey(r.Key)
	}
	return r.Key
}

// SetWire stores the event's stamped wire bytes.
func (r *WALRecord) SetWire(wire []byte) { r.Wire = wire }

// WALStats is the segment store's occupancy digest for the metrics
// endpoint: live segment count and their total bytes.
type WALStats struct {
	Segments int
	Bytes    int64
}

// Segment format: segMagic, which names it, then records, each
// recHeader bytes — u32 payload length, u32 CRC-32C of the payload, u32
// CRC-32C of those 8 bytes, little-endian — and the payload. The header
// vouches for its own length, so a damaged length is refused rather
// than read as a tail that runs past the end. maxRecord bounds a
// payload: the largest is one key's package in a checkpoint, and a
// package that can still move as a takeover forward fits one 16 MiB
// transport message. Append refuses a larger record, so replay never
// meets a good one.
const (
	segMagic  = "DMPSWAL\x01"
	recHeader = 12
	maxRecord = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only segment store: numbered segment files, each
// segMagic then records, rotated at a size threshold and truncated by
// checkpoints. Every record reaches the OS in one write before Append
// returns; rotation, checkpoint and close fsync. So a process crash
// loses nothing, and a host crash at most the records since the last
// fsync — replication to R-1 peers covers that gap. Safe for
// concurrent use.
type WAL struct {
	dir      string
	segBytes int64

	mu       sync.Mutex
	file     *os.File
	buf      []byte // record scratch, reused under mu
	segIdx   int
	curBytes int64
	oldBytes int64 // completed older segments' total
	segments int
	closed   bool
}

// segName formats a segment file name; segment order is the numeric
// order of these names.
func segName(idx int) string { return fmt.Sprintf("wal-%08d.log", idx) }

// listSegments returns the WAL segment indexes present in dir,
// ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &idx); err == nil && e.Name() == segName(idx) {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

// OpenWAL opens (creating) the segment store in dir. Existing segments
// are preserved — Replay reads them, and counts them in Stats — and new
// appends go to a fresh segment after the last. segBytes <= 0 means
// DefaultSegmentBytes.
func OpenWAL(dir string, segBytes int64) (*WAL, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("grouplog: wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("grouplog: wal: %w", err)
	}
	w := &WAL{dir: dir, segBytes: segBytes, segIdx: -1}
	if len(segs) > 0 {
		w.segIdx = segs[len(segs)-1]
	}
	return w, nil
}

// Replay hands every record of every live segment to fn, in write
// order; run it before the first Append. A torn tail — a record that
// is incomplete, or whose payload fails its checksum, and runs to the
// end of the last segment — is what a crash mid-append leaves: it is
// cut off and the segment fsynced, so the next replay reads clean. Any
// other bad record (a header failing its own checksum is one), a
// segment without segMagic (one in an older format, say), or an error
// from fn fails the replay with an error naming the segment file and
// byte offset. Segments are read whole; each record's fields share a
// buffer of that record's own, so what fn keeps pins no more.
func (w *WAL) Replay(fn func(WALRecord) error) error {
	segs, err := listSegments(w.dir)
	for i := 0; err == nil && i < len(segs); i++ {
		path := filepath.Join(w.dir, segName(segs[i]))
		var data []byte
		if data, err = os.ReadFile(path); err != nil {
			break
		}
		off, torn, serr := scanSegment(data, fn)
		if serr != nil && torn && i == len(segs)-1 {
			err = cutTail(path, off)
		} else if serr != nil {
			return fmt.Errorf("grouplog: wal replay: %s at offset %d: %w", path, off, serr)
		}
		w.mu.Lock()
		w.oldBytes, w.segments = w.oldBytes+int64(off), w.segments+1
		w.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("grouplog: wal replay: %w", err)
	}
	return nil
}

// scanSegment hands fn each record of one segment until the first bad
// one, and says where that is and whether it is bad only the way a
// crash mid-append leaves a segment's last record. An empty segment (a
// crash right after its creation) holds no records.
func scanSegment(data []byte, fn func(WALRecord) error) (off int, torn bool, err error) {
	if len(data) < len(segMagic) {
		if len(data) == 0 {
			return 0, false, nil
		}
		return 0, strings.HasPrefix(segMagic, string(data)), errors.New("segment shorter than its magic")
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, false, errors.New("not a journal segment (no magic)")
	}
	for off = len(segMagic); off < len(data); {
		rest := data[off:]
		if len(rest) < recHeader {
			return off, true, errors.New("incomplete record header")
		}
		if crc32.Checksum(rest[:8], castagnoli) != binary.LittleEndian.Uint32(rest[8:]) {
			return off, false, errors.New("record header fails its checksum")
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		end := recHeader + n
		if n > maxRecord {
			return off, false, fmt.Errorf("record of %d bytes exceeds the %d-byte maximum", n, maxRecord)
		}
		if end > int64(len(rest)) {
			return off, true, fmt.Errorf("record of %d bytes runs past the segment's end", n)
		}
		if crc32.Checksum(rest[recHeader:end], castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return off, end == int64(len(rest)), errors.New("checksum mismatch")
		}
		rec, err := DecodeRecord(bytes.Clone(rest[recHeader:end]))
		if err == nil {
			err = fn(rec)
		}
		if err != nil {
			return off, false, err
		}
		off += int(end)
	}
	return off, false, nil
}

// cutTail truncates the last segment to its last good record and
// fsyncs it.
func cutTail(path string, off int) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(int64(off))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrRecord is a record payload that does not decode: cut short, a
// length past the bytes left, or a kind the journal does not know.
var ErrRecord = errors.New("grouplog: undecodable record")

// AppendRecord appends rec's payload — its one encoding, in a segment
// and in a replica or takeover forward: byte Kind, byte State (0 or 1),
// uvarint GSeq and CSeq, then Key, Class and Wire each as a uvarint
// length and the bytes, then Data to the end.
func AppendRecord(b []byte, rec WALRecord) []byte {
	b = append(b, byte(rec.Kind), 0)
	if rec.State {
		b[len(b)-1] = 1
	}
	b = binary.AppendUvarint(b, uint64(rec.GSeq))
	b = binary.AppendUvarint(b, uint64(rec.CSeq))
	for _, s := range [...]string{rec.Key, rec.Class} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = append(binary.AppendUvarint(b, uint64(len(rec.Wire))), rec.Wire...)
	return append(b, rec.Data...)
}

// DecodeRecord reads a payload AppendRecord wrote; every field, Key and
// Class too, aliases p. Each length is checked against what is left of
// p before use, and a kind outside WALEvent..WALNextID is refused.
func DecodeRecord(p []byte) (rec WALRecord, err error) {
	if len(p) < 2 || p[0] < byte(WALEvent) || p[0] > byte(WALNextID) {
		return rec, ErrRecord
	}
	rec.Kind, rec.State, p = WALKind(p[0]), p[1] == 1, p[2:]
	var v [5]uint64 // GSeq, CSeq, then the lengths of Key, Class, Wire
	var field [5][]byte
	for i := range v {
		u, n := binary.Uvarint(p)
		if n <= 0 || (i >= 2 && u > uint64(len(p)-n)) {
			return WALRecord{}, ErrRecord
		}
		v[i], p = u, p[n:]
		if i >= 2 && u > 0 {
			field[i], p = p[:u], p[u:]
		}
	}
	rec.GSeq, rec.CSeq = int64(v[0]), int64(v[1])
	// A field is nil or not empty, and unsafe.String(nil, 0) is "".
	rec.Key = unsafe.String(unsafe.SliceData(field[2]), len(field[2]))
	rec.Class = unsafe.String(unsafe.SliceData(field[3]), len(field[3]))
	rec.Wire = field[4]
	if len(p) > 0 {
		rec.Data = p
	}
	return rec, nil
}

// appendLocked frames one record in the scratch buffer and writes it to
// the current segment in one write. A short write is taken back, so a
// torn record is never followed by good ones; where even that fails,
// the next append starts a fresh segment, and replay refuses the torn
// one until a checkpoint retires it. Requires w.mu and an open segment.
func (w *WAL) appendLocked(rec WALRecord) error {
	if rec.Kind < WALEvent || rec.Kind > WALNextID {
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	b := AppendRecord(append(w.buf[:0], make([]byte, recHeader)...), rec)
	w.buf = b
	if n := len(b) - recHeader; n > maxRecord {
		return fmt.Errorf("record of %d bytes exceeds the %d-byte maximum", n, maxRecord)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-recHeader))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[recHeader:], castagnoli))
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[:8], castagnoli))
	n, err := w.file.Write(b)
	if err == nil {
		w.curBytes += int64(n)
	} else if n > 0 && w.file.Truncate(w.curBytes) != nil {
		w.curBytes = w.segBytes
	}
	return err
}

// Append writes one record, rotating to a fresh segment past the size
// threshold. The record reaches the OS before Append returns.
func (w *WAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("grouplog: wal append: closed")
	}
	if w.file == nil || w.curBytes >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := w.appendLocked(rec); err != nil {
		return fmt.Errorf("grouplog: wal append: %w", err)
	}
	return nil
}

// rotateLocked syncs and closes the current segment and opens the next
// with its magic. A segment whose magic did not go down is not taken:
// the next rotation truncates it and writes the magic again, so no
// record ever lands in a segment that replay would refuse. Requires
// w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.retireLocked("rotate"); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.segIdx+1)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if _, err = f.Write([]byte(segMagic)); err != nil {
			err = errors.Join(err, f.Close())
		}
	}
	if err != nil {
		return fmt.Errorf("grouplog: wal rotate: %w", err)
	}
	w.file, w.segIdx, w.segments, w.curBytes = f, w.segIdx+1, w.segments+1, int64(len(segMagic))
	return nil
}

// Checkpoint writes the given full-state records into a fresh segment,
// fsyncs it, and deletes every older segment — the periodic snapshot
// that bounds replay work and disk. The records must restate everything
// replay needs (the caller dumps its live planes); appends racing the
// checkpoint land in the new segment after the snapshot, which replay
// applies idempotently on top. An older segment that cannot be deleted
// fails the call once the new one is synced, so nothing is lost.
func (w *WAL) Checkpoint(records []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("grouplog: wal checkpoint: closed")
	}
	err := w.rotateLocked()
	for i := 0; err == nil && i < len(records); i++ {
		err = w.appendLocked(records[i])
	}
	if err == nil {
		err = w.file.Sync()
	}
	if err != nil {
		return fmt.Errorf("grouplog: wal checkpoint: %w", err)
	}
	old, err := listSegments(w.dir)
	if err != nil {
		return fmt.Errorf("grouplog: wal checkpoint: %w", err)
	}
	w.oldBytes, w.segments = 0, 1
	for _, idx := range old[:sort.SearchInts(old, w.segIdx)] {
		path := filepath.Join(w.dir, segName(idx))
		if rerr := os.Remove(path); rerr != nil {
			if err == nil {
				err = fmt.Errorf("grouplog: wal checkpoint: %w", rerr)
			}
			if fi, serr := os.Stat(path); serr == nil {
				w.oldBytes, w.segments = w.oldBytes+fi.Size(), w.segments+1
			}
		}
	}
	return err
}

// Stats reports the live segment count and total bytes.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{Segments: w.segments, Bytes: w.oldBytes + w.curBytes}
}

// Close fsyncs and closes the current segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.retireLocked("close")
}

// retireLocked fsyncs and closes the current segment, if any, and lets
// go of it whatever happened — the next rotation opens a fresh one —
// returning the first error. Requires w.mu.
func (w *WAL) retireLocked(op string) error {
	if w.file == nil {
		return nil
	}
	w.oldBytes += w.curBytes
	w.curBytes = 0
	err := w.file.Sync()
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	w.file = nil
	if err != nil {
		return fmt.Errorf("grouplog: wal %s: %w", op, err)
	}
	return nil
}

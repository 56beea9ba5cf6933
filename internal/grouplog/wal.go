package grouplog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the WAL segment rotation threshold when the
// caller does not choose one: small enough that a checkpoint reclaims
// space promptly, large enough that rotation stays off the append path
// at classroom event rates.
const DefaultSegmentBytes = 1 << 20

// WAL record kinds. An "event" record is one logged append (the stamped
// wire bytes plus sequence coordinates, replayed via AppendRaw so
// GSeq/CSeq survive a restart exactly); the state kinds carry the
// non-log state a node needs to serve again — rosters, floor blobs,
// member homes, board heads, the ID counter — written on every change
// and restated wholesale by checkpoints.
const (
	WALEvent      = "event"
	WALGroup      = "group"
	WALFloor      = "floor"
	WALMember     = "member"
	WALMemberDrop = "member_drop"
	WALBoardHead  = "board_head"
	WALNextID     = "next_id"
)

// WALRecord is one write-ahead log line. Kind selects the shape:
// WALEvent uses Key/GSeq/CSeq/Class/State/Wire; WALBoardHead and
// WALNextID reuse GSeq as the value; the remaining kinds carry their
// payload in Data (shape owned by the writer, opaque here).
type WALRecord struct {
	Kind  string `json:"kind"`
	Key   string `json:"key,omitempty"`
	GSeq  int64  `json:"gseq,omitempty"`
	CSeq  int64  `json:"cseq,omitempty"`
	Class string `json:"class,omitempty"`
	State bool   `json:"state,omitempty"`
	// Wire is the event's binary frame, base64 on disk. It keeps the
	// "wire_b" key it had beside a raw-JSON twin, so that segments written
	// before the twin was dropped still replay.
	Wire []byte          `json:"wire_b,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// SetWire stores the event's stamped wire bytes.
func (r *WALRecord) SetWire(wire []byte) { r.Wire = wire }

// WireBytes returns the event's stamped wire bytes.
func (r *WALRecord) WireBytes() []byte { return r.Wire }

// WALStats is the segment store's occupancy digest for the metrics
// endpoint: live segment count and their total bytes.
type WALStats struct {
	Segments int
	Bytes    int64
}

// WAL is an append-only segment store: JSON-line records in numbered
// segment files, rotated at a size threshold, truncated by state
// checkpoints. Appends flush to the OS on every record and fsync on
// rotation and checkpoint — a process crash loses nothing, a host
// crash at most the records since the last sync (the documented
// durability point; replication to R-1 peers covers the gap). Safe for
// concurrent use.
type WAL struct {
	dir      string
	segBytes int64

	mu       sync.Mutex
	file     *os.File
	w        *bufio.Writer
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
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, "wal-%08d.log", &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

// OpenWAL opens (creating) the segment store in dir. Existing segments
// are preserved — call Replay to install their records — and new
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
	for _, idx := range segs {
		if fi, err := os.Stat(filepath.Join(dir, segName(idx))); err == nil {
			w.oldBytes += fi.Size()
		}
		w.segments++
		w.segIdx = idx
	}
	return w, nil
}

// Replay reads every record of every live segment, in write order, and
// hands each to fn. A torn final line (a crash mid-append) is skipped;
// a decode error elsewhere aborts. Replay before the first Append.
func (w *WAL) Replay(fn func(WALRecord) error) error {
	w.mu.Lock()
	segs, err := listSegments(w.dir)
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("grouplog: wal replay: %w", err)
	}
	for _, idx := range segs {
		f, err := os.Open(filepath.Join(w.dir, segName(idx)))
		if err != nil {
			return fmt.Errorf("grouplog: wal replay: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec WALRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				// A torn tail from a crash mid-write is expected; stop
				// replaying this segment there.
				break
			}
			if err := fn(rec); err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// Append writes one record, rotating to a fresh segment past the size
// threshold. The record is flushed to the OS before Append returns.
func (w *WAL) Append(rec WALRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("grouplog: wal append: %w", err)
	}
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
	n, err := w.w.Write(append(line, '\n'))
	if err == nil {
		err = w.w.Flush()
	}
	if err != nil {
		return fmt.Errorf("grouplog: wal append: %w", err)
	}
	w.curBytes += int64(n)
	return nil
}

// rotateLocked syncs and closes the current segment and opens the next.
// Requires w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.retireLocked("rotate"); err != nil {
		return err
	}
	w.segIdx++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("grouplog: wal rotate: %w", err)
	}
	w.file = f
	w.w = bufio.NewWriter(f)
	w.segments++
	return nil
}

// Checkpoint writes the given full-state records into a fresh segment,
// fsyncs it, and deletes every older segment — the periodic snapshot
// that bounds replay work and disk. The records must restate everything
// replay needs (the caller dumps its live planes); appends racing the
// checkpoint land in the new segment after the snapshot, which replay
// applies idempotently on top.
func (w *WAL) Checkpoint(records []WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("grouplog: wal checkpoint: closed")
	}
	old, err := listSegments(w.dir)
	if err != nil {
		return fmt.Errorf("grouplog: wal checkpoint: %w", err)
	}
	if err := w.rotateLocked(); err != nil {
		return err
	}
	for _, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("grouplog: wal checkpoint: %w", err)
		}
		n, err := w.w.Write(append(line, '\n'))
		if err != nil {
			return fmt.Errorf("grouplog: wal checkpoint: %w", err)
		}
		w.curBytes += int64(n)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("grouplog: wal checkpoint: %w", err)
	}
	if err := w.file.Sync(); err != nil {
		return fmt.Errorf("grouplog: wal checkpoint: %w", err)
	}
	w.oldBytes = 0
	w.segments = 1
	for _, idx := range old {
		if idx == w.segIdx {
			continue
		}
		os.Remove(filepath.Join(w.dir, segName(idx)))
	}
	return nil
}

// Stats reports the live segment count and total bytes.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{Segments: w.segments, Bytes: w.oldBytes + w.curBytes}
}

// Close flushes, fsyncs and closes the current segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.retireLocked("close")
}

// retireLocked flushes, fsyncs and closes the current segment, if any,
// and lets go of it whatever happened — the next rotation opens a fresh
// one — returning the first error. Requires w.mu.
func (w *WAL) retireLocked(op string) error {
	if w.file == nil {
		return nil
	}
	w.oldBytes += w.curBytes
	w.curBytes = 0
	err := w.w.Flush()
	if serr := w.file.Sync(); err == nil {
		err = serr
	}
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	w.file = nil
	if err != nil {
		return fmt.Errorf("grouplog: wal %s: %w", op, err)
	}
	return nil
}

package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/floor"
	"dmps/internal/grouplog"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// journalHeader is the bytes ahead of each record's payload.
const journalHeader = 12

// journalSegment is one segment file of a journal, read whole, with the
// offsets (within the file) where its records start and end.
type journalSegment struct {
	name        string
	data        []byte
	starts, end []int64
}

// readJournal reads a journal's segments in order and frames their
// records: an 8-byte magic, then u32 length | u32 CRC-32C of the
// payload | u32 CRC-32C of the 8 bytes before it | payload.
func readJournal(t *testing.T, dir string) []journalSegment {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var segs []journalSegment
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seg := journalSegment{name: filepath.Base(path), data: data}
		for off := int64(8); off < int64(len(data)); {
			next := off + journalHeader + int64(binary.LittleEndian.Uint32(data[off:]))
			seg.starts, seg.end = append(seg.starts, off), append(seg.end, next)
			off = next
		}
		segs = append(segs, seg)
	}
	return segs
}

// cutJournal writes into a fresh directory the journal as a crash at
// byte off of segment si leaves it: that segment cut there, the later
// ones never written.
func cutJournal(t *testing.T, segs []journalSegment, si int, off int64) string {
	t.Helper()
	dir := t.TempDir()
	for i, seg := range segs[:si+1] {
		data := seg.data
		if i == si {
			data = data[:off]
		}
		if err := os.WriteFile(filepath.Join(dir, seg.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// journalState renders what a restarted node serves from: the ID
// counter, member rows and resume tokens, each group's chair, roster,
// floor state and board head, and every log's heads.
func journalState(s *Server) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next_id %d\n", s.nextID.Load())
	var rows []string
	for _, m := range s.registry.Members() {
		rows = append(rows, fmt.Sprintf("member %+v", m))
	}
	s.mu.Lock()
	for id, tok := range s.tokenOf {
		rows = append(rows, fmt.Sprintf("token %s %s", id, tok))
	}
	s.mu.Unlock()
	for _, g := range s.registry.Groups() {
		chair, _ := s.registry.Chair(g)
		members, _ := s.registry.GroupMembers(g)
		var roster []string
		for _, m := range members {
			roster = append(roster, string(m.ID))
		}
		sort.Strings(roster)
		gb := s.board(g)
		gb.mu.Lock()
		head := gb.board.Seq()
		gb.mu.Unlock()
		rows = append(rows, fmt.Sprintf("group %s chair=%s roster=%v floor=%+v board=%d", g, chair, roster, s.floorCtl.Snapshot(g), head))
	}
	for _, key := range s.logs.Keys() {
		lg := s.logs.Get(key)
		rows = append(rows, fmt.Sprintf("log %s head=%d classes=%v", key, lg.Head(), lg.ClassHeads()))
	}
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, "\n"))
	return b.String()
}

// TestJournalCrashInjection: a WAL-backed node with small segments runs
// joins, floor hand-offs, board lines and a reap, so its journal spans
// several segments; then, for a fixed list of seeds, a copy of the
// journal is cut at a random byte (a crash mid-append) or has one
// random bit flipped (corruption). Restarting on the copy must either
// serve exactly the state that replaying the records before the damage
// gives — holder, queue, roster, board head, log heads, tokens — or
// refuse to start with an error naming the damaged segment file and the
// offset of the damaged record. A cut always restarts. A flip restarts
// only where a crash mid-append could have left the same bytes — in the
// payload of the last segment's final record, which is cut as a torn
// tail — and is refused anywhere else. A node restarted on a torn tail,
// that appends and restarts again, starts both times.
func TestJournalCrashInjection(t *testing.T) {
	n := netsim.New(23)
	sim := clock.NewSim(time.Unix(5000, 0))
	dir := t.TempDir()
	cfg := func(addr, walDir string) Config {
		return Config{
			Network: n, Addr: addr, Clock: sim, ProbeInterval: time.Hour, SessionTTL: time.Minute,
			WALDir: walDir, WALSegmentBytes: 512,
		}
	}
	srv, err := New(cfg("live:1", dir))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	const g = "hall"
	members := map[string]*client.Client{}
	for _, who := range []string{"alice", "bob", "carol", "dave"} {
		role := "participant"
		if who == "alice" {
			role = "chair"
		}
		c, err := client.Dial(client.Config{
			Network: n.From(who + "host"), Addr: "live:1", Name: who, Role: role, Priority: 2, Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", who, err)
		}
		defer c.Close()
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		members[who] = c
	}
	for i, who := range []string{"alice", "bob", "carol"} {
		if dec, err := members[who].RequestFloor(g, floor.EqualControl, ""); err != nil || dec.Granted != (i == 0) {
			t.Fatalf("%s floor request: %+v %v", who, dec, err)
		}
	}
	for _, who := range []string{"alice", "bob"} {
		if err := members[who].ReleaseFloor(g); err != nil {
			t.Fatal(err)
		}
	}
	for _, line := range []string{"one", "two", "three"} {
		sim.Advance(time.Second)
		if err := members["carol"].Chat(g, line); err != nil {
			t.Fatal(err)
		}
	}
	// A chat line is acked before its paced batch is appended: wait for
	// the four joins' directory entries, the three grants-or-queueings,
	// two releases and three lines.
	waitFor(t, "every event to be logged", func() bool { return srv.logs.Get(g).Head() == 12 })
	sim.Advance(time.Minute)
	for _, who := range []string{"alice", "bob", "carol"} {
		if _, err := members[who].SyncClock(); err != nil {
			t.Fatal(err)
		}
	}
	if reaped := srv.Reap(sim.Now()); len(reaped) != 1 || reaped[0] != members["dave"].MemberID() {
		t.Fatalf("reaped %v, want dave", reaped)
	}
	srv.Close()

	segs := readJournal(t, dir)
	if len(segs) < 3 {
		t.Fatalf("the journal spans %d segments, want several", len(segs))
	}
	// ends lists every record's end as (segment, offset), in write order.
	type pos struct {
		seg int
		off int64
	}
	var ends []pos
	for si, seg := range segs {
		for _, end := range seg.end {
			ends = append(ends, pos{si, end})
		}
	}
	starts := 0
	start := func(t *testing.T, walDir string) (*Server, error) {
		t.Helper()
		starts++
		s, err := New(cfg(fmt.Sprintf("restart%d:1", starts), walDir))
		if err == nil {
			t.Cleanup(s.Close)
		}
		return s, err
	}
	// want[k] is the state replaying the first k records gives.
	want := make([]string, len(ends)+1)
	for k := range want {
		cut := pos{0, 0}
		if k > 0 {
			cut = ends[k-1]
		}
		s, err := start(t, cutJournal(t, segs, cut.seg, cut.off))
		if err != nil {
			t.Fatalf("restart on the first %d records: %v", k, err)
		}
		want[k] = journalState(s)
		s.Close()
	}
	if full := want[len(ends)]; !strings.Contains(full, "Holder:"+members["carol"].MemberID()) || strings.Contains(full, members["dave"].MemberID()) {
		t.Fatalf("the whole journal replays as\n%s\nwant carol holding the floor and no trace of the reaped dave", full)
	}
	// recordAt is how many records end at or before byte off of segment
	// si — the records a cut there keeps, or a flip there leaves intact —
	// and the offset of the record that byte belongs to (0 for the magic).
	recordAt := func(si int, off int64) (k int, recStart int64) {
		for _, e := range ends {
			if e.seg < si || (e.seg == si && e.off <= off) {
				k++
			}
		}
		for _, s := range segs[si].starts {
			if s <= off {
				recStart = s
			}
		}
		return k, recStart
	}
	var total int64
	for _, seg := range segs {
		total += int64(len(seg.data))
	}
	locate := func(global int64) (si int, off int64) {
		for si = range segs {
			if global < int64(len(segs[si].data)) {
				return si, global
			}
			global -= int64(len(segs[si].data))
		}
		return len(segs) - 1, int64(len(segs[len(segs)-1].data))
	}

	refused := 0
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprintf("cut/seed%d", seed), func(t *testing.T) {
			si, off := locate(rng.Int63n(total))
			k, _ := recordAt(si, off)
			s, err := start(t, cutJournal(t, segs, si, off))
			if err != nil {
				t.Fatalf("a journal cut at %s+%d does not restart: %v", segs[si].name, off, err)
			}
			if got := journalState(s); got != want[k] {
				t.Fatalf("cut at %s+%d: restarted with\n%s\nwant the first %d records' state\n%s", segs[si].name, off, got, k, want[k])
			}
		})
		t.Run(fmt.Sprintf("bitflip/seed%d", seed), func(t *testing.T) {
			si, off := locate(rng.Int63n(total))
			last := len(segs) - 1
			finalStart := segs[last].starts[len(segs[last].starts)-1]
			damaged := cutJournal(t, segs, last, int64(len(segs[last].data)))
			path := filepath.Join(damaged, segs[si].name)
			data := append([]byte(nil), segs[si].data...)
			data[off] ^= 1 << rng.Intn(8)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			k, recStart := recordAt(si, off)
			tornTail := si == last && recStart == finalStart && off >= recStart+journalHeader
			s, err := start(t, damaged)
			if !tornTail {
				if where := fmt.Sprintf("%s at offset %d", path, recStart); err == nil || !strings.Contains(err.Error(), where) {
					t.Fatalf("flip at %s+%d: start error %v, want a refusal naming %q", segs[si].name, off, err, where)
				}
				refused++
				return
			}
			if err != nil {
				t.Fatalf("flip in the final record's payload at %s+%d, a torn tail, refused: %v", segs[si].name, off, err)
			}
			if got := journalState(s); got != want[k] {
				t.Fatalf("flip at %s+%d: restarted with\n%s\nwant the first %d records' state\n%s", segs[si].name, off, got, k, want[k])
			}
		})
	}
	if refused == 0 {
		t.Error("no bit flip was refused: the seeds never hit a record before the tail")
	}
	t.Logf("%d records in %d segments; %d of 64 bit flips refused", len(ends), len(segs), refused)

	t.Run("flip in the final record's payload", func(t *testing.T) {
		last := len(segs) - 1
		walDir := cutJournal(t, segs, last, int64(len(segs[last].data)))
		data := append([]byte(nil), segs[last].data...)
		data[len(data)-1] ^= 1
		if err := os.WriteFile(filepath.Join(walDir, segs[last].name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := start(t, walDir)
		if err != nil {
			t.Fatalf("a final record failing its checksum, a torn tail, refused: %v", err)
		}
		if got := journalState(s); got != want[len(ends)-1] {
			t.Fatalf("restart serves\n%s\nwant every record but the torn one", got)
		}
	})
	t.Run("torn tail, append, restart", func(t *testing.T) {
		last := len(segs) - 1
		end := segs[last].end[len(segs[last].end)-1]
		walDir := cutJournal(t, segs, last, end-3)
		s, err := start(t, walDir)
		if err != nil {
			t.Fatalf("first restart on a torn tail: %v", err)
		}
		if got := journalState(s); got != want[len(ends)-1] {
			t.Fatalf("first restart serves\n%s\nwant every record but the torn one", got)
		}
		head := s.logs.Get(g).Head()
		s.Broadcast(g, protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{Seq: 99, Author: members["alice"].MemberID(), Kind: "text", Data: "after"}))
		s.Close()
		again, err := start(t, walDir)
		if err != nil {
			t.Fatalf("second restart: %v", err)
		}
		if got := again.logs.Get(g).Head(); got != head+1 {
			t.Fatalf("second restart resumes the log at %d, want %d", got, head+1)
		}
	})
}

// TestCheckpointIsOnePackagePerKey: a checkpoint's segment holds the ID
// counter, then exactly one package record per partition key — every
// member home and every group — and nothing else.
func TestCheckpointIsOnePackagePerKey(t *testing.T) {
	n := netsim.New(24)
	dir := t.TempDir()
	srv, err := New(Config{Network: n, Addr: "ckpt:1", ProbeInterval: time.Hour, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	want := map[string]bool{"hall": true, "side": true}
	for _, who := range []string{"alice", "bob"} {
		c, err := client.Dial(client.Config{Network: n.From(who + "host"), Addr: "ckpt:1", Name: who, Role: "participant", Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, g := range []string{"hall", "side"} {
			if err := c.Join(g); err != nil {
				t.Fatal(err)
			}
		}
		want["~"+c.MemberID()] = true
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The checkpoint's segment is the newest: replay it alone.
	segs := readJournal(t, dir)
	ckpt := t.TempDir()
	last := segs[len(segs)-1]
	if err := os.WriteFile(filepath.Join(ckpt, last.name), last.data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := grouplog.OpenWAL(ckpt, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var kinds []grouplog.WALKind
	got := map[string]bool{}
	if err := w.Replay(func(rec grouplog.WALRecord) error {
		kinds = append(kinds, rec.Kind)
		if rec.Kind == grouplog.WALPackage {
			if got[rec.Key] {
				t.Errorf("key %s restated twice", rec.Key)
			}
			got[rec.Key] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != len(want)+1 || kinds[0] != grouplog.WALNextID || !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint wrote kinds %v for keys %v, want next_id then one package for each of %v", kinds, got, want)
	}
}

// TestReplayRefusesAnUndecodableFloor: a journal record whose checksum
// holds but whose floor snapshot does not decode — in an event record
// or in a package — fails the replay, and with it New. A floor the
// journal cannot state is never installed as some default floor. The
// same records around a snapshot that decodes replay.
func TestReplayRefusesAnUndecodableFloor(t *testing.T) {
	event := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{Mode: floor.EqualControl.String(), Event: "granted"})
	event.Group, event.GSeq, event.Class, event.CSeq, event.State = "hall", 1, protocol.ClassFloor, 1, true
	wire, err := protocol.EncodeBinary(event)
	if err != nil {
		t.Fatal(err)
	}
	good := floor.Snapshot{Mode: floor.EqualControl}.AppendBinary(nil)
	snaps := map[string][]byte{
		"decodes":        good,
		"unknown mode":   floor.Snapshot{Mode: floor.Mode(99)}.AppendBinary(nil),
		"cut short":      good[:len(good)-1],
		"trailing bytes": append(good[:len(good):len(good)], 0),
	}
	for name, snap := range snaps {
		pkg, err := protocol.PackageRecord(protocol.TakeoverBody{Key: "hall", Floor: snap})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []grouplog.WALRecord{
			{Kind: grouplog.WALEvent, Key: "hall", GSeq: 1, CSeq: 1, Class: protocol.ClassFloor, State: true, Wire: wire, Data: snap},
			pkg,
		} {
			dir := t.TempDir()
			w, err := grouplog.OpenWAL(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Network: netsim.New(25), Addr: "replay:1", WALDir: dir})
			if err == nil {
				srv.Close()
			}
			if (err == nil) != (name == "decodes") {
				t.Errorf("%s: replaying a %v record: %v", name, rec.Kind, err)
			}
		}
	}
}

// TestReplayedRosterDropsWhoLeft: a package that carries a chair states
// the key's roster whole. alice, bob and carol join; a checkpoint
// restates the group; carol leaves. The node restarted on its journal
// must serve the roster the leave left, not the checkpoint's.
func TestReplayedRosterDropsWhoLeft(t *testing.T) {
	n := netsim.New(25)
	dir := t.TempDir()
	srv, err := New(Config{Network: n, Addr: "roster:1", ProbeInterval: time.Hour, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	const g = "hall"
	ids := map[string]string{}
	var carol *client.Client
	for _, who := range []string{"alice", "bob", "carol"} {
		c, err := client.Dial(client.Config{Network: n.From(who + "host"), Addr: "roster:1", Name: who, Role: "participant", Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
		ids[who], carol = c.MemberID(), c
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := carol.Leave(g); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	restarted, err := New(Config{Network: n, Addr: "roster:2", ProbeInterval: time.Hour, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	got, err := restarted.registry.GroupMemberIDs(g)
	if err != nil {
		t.Fatal(err)
	}
	var roster []string
	for _, id := range got {
		roster = append(roster, string(id))
	}
	sort.Strings(roster)
	if want := []string{ids["alice"], ids["bob"]}; !reflect.DeepEqual(roster, want) {
		t.Fatalf("replayed roster %v, want %v", roster, want)
	}
}

// Package grouplog is the server's sequenced event-log plane: one
// bounded, compacting log of encoded state events per key, where a key
// is a group ID (floor grants/releases/queueing, suspend/resume, board
// operations, mode switches) or a member's private event log
// (invitations). Every state broadcast is appended here first — the
// append assigns the event its per-key GSeq and its per-(key, class)
// CSeq, which the caller stamps into the wire bytes — and the same
// bytes are fanned out and retained for replay. A client that took
// drops, or reconnects with its last-seen sequence numbers, asks for
// the missing suffix of the classes it subscribes to.
//
// Retention is class-keyed, not FIFO: when the log exceeds its
// capacity, entries superseded by a later state-bearing event of the
// same class are dropped first (a state-bearing event fully restates
// its class's state, so everything older than it is redundant for
// catch-up), and only then does the plain suffix shrink from the
// front. Each class's latest state-bearing event is never evicted. The
// payoff is reach: a client stalled past what a FIFO ring would retain
// usually still finds a connectable suffix — the latest floor and
// suspend restatements plus the recent board ops — instead of needing
// a full snapshot.
//
// Logs are sharded behind the lock-striped shard.Map, so appends in one
// group never contend with appends in another — the same partitioning
// discipline as the floor controller and the group registry.
package grouplog

import (
	"sync"

	"dmps/internal/shard"
)

// DefaultCap is the per-key retained-entry capacity when the caller
// does not choose one. 512 events rides out multi-second stalls at
// classroom event rates while bounding retained memory per group; a
// client the retained suffix can no longer connect converges through a
// snapshot instead, so the capacity trades replay reach against
// memory, never correctness.
const DefaultCap = 512

// MemberKey returns the log key of a member's private event log. The
// "~" prefix cannot collide with group IDs that reach the server
// through Join/CreateGroup message bodies only; group logs use the
// group ID itself as the key.
func MemberKey(memberID string) string { return "~" + memberID }

// ClassDirectory is the class of a key's directory entries: each marks
// a change to the key's directory part (a group's chair and roster, a
// member's row and token), which takes the key's next GSeq like any
// event. It is internal: no client receives it, Replay and ClassHeads
// leave it out, and the log keeps none of its bytes — the directory is
// read live, and the journal and the replicas get the entry's record.
const ClassDirectory = "~directory"

// Plane is the set of per-key logs, sharded for concurrency. shown
// holds the logs with an entry of a client class, the ones the heads
// digest walks: a member's log holds only directory entries until an
// invitation reaches it.
type Plane struct {
	cap   int
	logs  *shard.Map[*Log]
	shown *shard.Map[*Log]
}

// NewPlane returns an empty plane whose logs hold cap entries each
// (DefaultCap when cap <= 0).
func NewPlane(cap int) *Plane {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Plane{cap: cap, logs: shard.NewMap[*Log](), shown: shard.NewMap[*Log]()}
}

// Cap returns the per-key retained-entry capacity.
func (p *Plane) Cap() int { return p.cap }

// Get returns (creating) the log for a key.
func (p *Plane) Get(key string) *Log {
	return p.logs.GetOrCreate(key, func() *Log {
		l := newLog(p.cap)
		l.show = func() { p.shown.Set(key, l) }
		return l
	})
}

// Peek returns the log for a key without creating it.
func (p *Plane) Peek(key string) (*Log, bool) { return p.logs.Get(key) }

// Drop discards a key's log entirely — the reap path for members whose
// session and directory entry have expired.
func (p *Plane) Drop(key string) {
	p.logs.Delete(key)
	p.shown.Delete(key)
}

// ClassHeads returns, for every log with an entry of a client class,
// its per-class head CSeqs. It is the digest the server
// broadcasts with the connection lights so clients can detect that
// they are behind even when the group has gone quiet — filtered per
// recipient to their groups and subscribed classes before it leaves
// the server.
func (p *Plane) ClassHeads() map[string]map[string]int64 {
	keys := p.shown.Keys()
	out := make(map[string]map[string]int64, len(keys))
	for _, key := range keys {
		if lg, ok := p.shown.Get(key); ok {
			if heads := lg.ClassHeads(); len(heads) > 0 {
				out[key] = heads
			}
		}
	}
	return out
}

// Stats is the plane-wide occupancy and compaction digest the metrics
// endpoint exports: how many logs exist, how many entries they retain
// between them, and the cumulative compaction-run and evicted-entry
// counts. The counters live on the logs themselves — Stats only sums
// what appends already maintain, so scraping adds no bookkeeping to the
// broadcast hot path.
type Stats struct {
	// Logs is the number of live per-key logs.
	Logs int
	// Entries is the total retained entries across all logs.
	Entries int
	// Compactions is the cumulative number of compaction runs.
	Compactions int64
	// Evicted is the cumulative number of entries dropped by compaction.
	Evicted int64
}

// Stats sums the plane's occupancy and compaction counters.
func (p *Plane) Stats() Stats {
	var st Stats
	for _, key := range p.logs.Keys() {
		lg, ok := p.logs.Get(key)
		if !ok {
			continue
		}
		lg.mu.Lock()
		st.Logs++
		st.Entries += len(lg.live())
		st.Compactions += lg.compactions
		st.Evicted += lg.evicted
		lg.mu.Unlock()
	}
	return st
}

// entry is one retained event: its log-wide GSeq, per-class CSeq, the
// class, whether it is state-bearing (a full restatement of its
// class's state) and the encoded wire bytes.
type entry struct {
	gseq  int64
	cseq  int64
	class string
	state bool
	wire  []byte
}

// Log is one key's compacting sequence of encoded events. GSeq numbers
// are 1-based and dense at append time; CSeq numbers are 1-based and
// dense within each class. Compaction may thin the retained set, but
// it never drops a class's latest state-bearing event.
//
// The retained window is entries[start:]; dropping the oldest entry is
// a start++ with storage reclaimed in bulk, so steady-state churn on a
// full log (the broadcast hot path) costs O(1) amortized — the O(n)
// sweep runs only when superseded entries actually exist.
type Log struct {
	mu      sync.Mutex
	cap     int
	entries []entry
	start   int   // entries[start:] is the live window
	head    int64 // highest assigned GSeq (0 when empty)
	// classes holds a row per class the log has sequenced (a handful at
	// most, found by a scan), and superseded counts the retained entries
	// a later state-bearing entry of their class restates — bookkeeping
	// that lets the compactor skip its sweep when there is nothing to
	// sweep.
	classes    []classRow
	superseded int
	// compactions counts compactLocked runs and evicted the entries
	// those runs dropped (superseded sweeps and front trims alike) —
	// the observability plane's view of retention pressure: a log whose
	// evicted counter climbs is outliving its replay window.
	compactions int64
	evicted     int64
	// show enters the log in its plane's shown set, once, at its first
	// entry of a client class (nil outside a plane).
	show func()
}

// classRow is one class's bookkeeping in a log: its highest assigned
// CSeq, the GSeq of its newest state-bearing entry — everything older
// of the class is superseded and is compaction's first prey — and its
// retained entries that are not superseded.
type classRow struct {
	class       string
	head        int64
	latestState int64
	fresh       int
}

func newLog(cap int) *Log { return &Log{cap: cap} }

// row returns class's row, adding an empty one if the log has none.
// Requires l.mu.
func (l *Log) row(class string) *classRow {
	for i := range l.classes {
		if l.classes[i].class == class {
			return &l.classes[i]
		}
	}
	l.classes = append(l.classes, classRow{class: class})
	return &l.classes[len(l.classes)-1]
}

// live returns the retained window. Requires l.mu.
func (l *Log) live() []entry { return l.entries[l.start:] }

// Append assigns the event's sequence numbers, calls encode(gseq, cseq)
// to produce the wire bytes with them stamped in, retains the entry
// (compacting under capacity pressure) and hands the bytes to deliver
// (which may be nil). The lock is held across encode, store and
// deliver so fan-out order equals log order — two concurrent appends
// can never reach a recipient's queue inverted, which is what lets
// clients apply events strictly in sequence. deliver must therefore
// never block (the server's per-session queues drop rather than wait).
// An encode error leaves the log untouched.
func (l *Log) Append(class string, state bool, encode func(gseq, cseq int64) ([]byte, error), deliver func(wire []byte)) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	gseq := l.head + 1
	cseq := l.row(class).head + 1
	wire, err := encode(gseq, cseq)
	if err != nil {
		return 0, err
	}
	l.pushLocked(entry{gseq: gseq, cseq: cseq, class: class, state: state, wire: wire})
	if deliver != nil {
		deliver(wire)
	}
	return gseq, nil
}

// AppendRaw installs an already-stamped event — the cluster takeover
// path, where an adopting node replays a partition's replicated log
// suffix into its own plane so clients' per-class cursors keep counting
// across the handoff. The sequence numbers come from the original
// owner's append; entries must arrive in GSeq order (out-of-order or
// duplicate installs are dropped). Nothing is delivered: adoption
// restores retention and heads, and clients pull what they miss through
// the ordinary backfill path.
func (l *Log) AppendRaw(gseq, cseq int64, class string, state bool, wire []byte) {
	if gseq <= 0 || class == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if gseq <= l.head {
		return
	}
	l.pushLocked(entry{gseq: gseq, cseq: cseq, class: class, state: state, wire: wire})
}

// pushLocked retains a newly sequenced entry as the log's head,
// compacting under capacity pressure. Requires l.mu.
func (l *Log) pushLocked(e entry) {
	l.head = e.gseq
	if e.class == ClassDirectory {
		e.wire = nil
	} else if l.show != nil {
		l.show()
		l.show = nil
	}
	r := l.row(e.class)
	r.head = max(r.head, e.cseq)
	if e.state {
		l.superseded += r.fresh
		r.fresh = 0
		r.latestState = e.gseq
	}
	r.fresh++
	l.entries = append(l.entries, e)
	if len(l.live()) > l.cap {
		l.compactLocked()
	}
}

// compactLocked brings the retained window back under capacity: first
// it drops every entry superseded by a later state-bearing entry of
// the same class (skipped outright when the superseded counter says
// there are none — the broadcast hot path must not pay a sweep per
// append), then — if still over — trims from the front, skipping each
// class's latest state-bearing entry (those are the anchors a
// far-behind client converges from). Requires l.mu.
func (l *Log) compactLocked() {
	l.compactions++
	before := len(l.live())
	defer func() { l.evicted += int64(before - len(l.live())) }()
	if l.superseded > 0 {
		prev := l.entries
		kept := l.entries[:0]
		for _, e := range l.live() {
			if e.gseq < l.row(e.class).latestState {
				continue // superseded: a newer full restatement exists
			}
			kept = append(kept, e)
		}
		// Zero the dropped tail so the evicted wire bytes are released
		// now, not when a future append happens to overwrite the slot.
		for i := len(kept); i < len(prev); i++ {
			prev[i] = entry{}
		}
		l.entries = kept
		l.start = 0
		l.superseded = 0
	}
	for len(l.live()) > l.cap {
		// Evict the oldest non-anchor entry. It is almost always at (or
		// within a few anchors of) the front, so this is a start bump,
		// not a rebuild. No superseded entries exist here (swept above),
		// so every eviction debits fresh.
		idx := -1
		for i, e := range l.live() {
			if !(e.state && e.gseq == l.row(e.class).latestState) {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Only anchors remain: keep them all — the bound is soft by
			// at most the number of classes.
			return
		}
		l.row(l.live()[idx].class).fresh--
		// Shift the idx leading anchors right one slot (idx is bounded
		// by the number of classes) and bump start: the eviction is
		// O(classes), never a rebuild.
		at := l.start + idx
		copy(l.entries[l.start+1:at+1], l.entries[l.start:at])
		l.entries[l.start] = entry{} // release the wire bytes
		l.start++
	}
	// Reclaim the dead prefix in bulk once it dominates the backing
	// array: one copy per ~cap front drops keeps eviction O(1) amortized
	// without the slice growing forever.
	if l.start > l.cap {
		n := copy(l.entries, l.entries[l.start:])
		l.entries = l.entries[:n]
		l.start = 0
	}
}

// Len returns the number of retained entries — the log's ring
// occupancy, at most Cap plus the soft anchor overhang.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live())
}

// Head returns the highest assigned GSeq (0 when empty).
func (l *Log) Head() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// ClassHeads returns the highest assigned CSeq per client class.
func (l *Log) ClassHeads() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.classHeadsLocked()
}

// classHeadsLocked copies the client classes' heads (a row an append
// that failed to encode added has none). Requires l.mu.
func (l *Log) classHeadsLocked() map[string]int64 {
	out := make(map[string]int64, len(l.classes))
	for _, r := range l.classes {
		if r.class != ClassDirectory && r.head > 0 {
			out[r.class] = r.head
		}
	}
	return out
}

// Entry is one retained event in export form: the sequence coordinates
// and wire bytes a migration takeover package or a WAL checkpoint needs
// to re-install the event elsewhere with AppendRaw.
type Entry struct {
	GSeq  int64
	CSeq  int64
	Class string
	State bool
	Wire  []byte
}

// Dump exports the retained window in log order — the live-state source
// for a migration's takeover package and for WAL checkpoints. The wire
// byte slices are shared, not copied; callers must treat them as
// read-only (every producer in this plane already does).
func (l *Log) Dump() []Entry { return l.DumpAt(nil) }

// DumpAt is Dump with at run on the export, and the head it covers,
// under the log's lock: what at reads of the state an append changes is
// of the same moment as the events, and what it sends goes out before
// anything a later append delivers.
func (l *Log) DumpAt(at func(head int64, es []Entry)) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, 0, len(l.live()))
	for _, e := range l.live() {
		out = append(out, Entry{GSeq: e.gseq, CSeq: e.cseq, Class: e.class, State: e.state, Wire: e.wire})
	}
	if at != nil {
		at(l.head, out)
	}
	return out
}

// Keys lists the plane's live log keys.
func (p *Plane) Keys() []string { return p.logs.Keys() }

// Replay emits, in log order, every retained event whose client class
// passes the want filter and whose CSeq is beyond the caller's position
// in afters (a class absent from afters counts as position 0). It
// reports the per-class heads and whether the emitted suffix lets the
// caller converge.
//
// Convergence is judged by simulating the client's admission rule over
// the retained entries: a cursor at position p admits an entry with
// CSeq p+1 (exact continuation) or any state-bearing entry beyond p (a
// full restatement the client jumps its cursor onto). A wanted class
// whose simulated cursor cannot reach its head — the connecting
// entries were compacted or trimmed away without a state-bearing
// anchor to jump to — makes the whole replay incomplete: nothing is
// emitted and the caller must send a snapshot instead.
//
// The lock is held across the emits so a concurrent Append cannot fan
// out between (or ahead of) replayed entries; like Append's deliver,
// emit must not block.
func (l *Log) Replay(afters map[string]int64, wants func(class string) bool, emit func(wire []byte)) (heads map[string]int64, complete bool) {
	want := func(class string) bool { return class != ClassDirectory && wants(class) }
	l.mu.Lock()
	defer l.mu.Unlock()
	heads = l.classHeadsLocked()
	// Entries older than the newest state-bearing entry of their class
	// within the needed suffix are superseded by it — replaying them
	// would only re-derive what that one restatement already says, and
	// a long suffix of restatements could flood the very queue whose
	// drops the caller is repairing. Skip them.
	lastSB := make(map[string]int64)
	for _, e := range l.live() {
		if e.state && want(e.class) && e.cseq > afters[e.class] && e.cseq > lastSB[e.class] {
			lastSB[e.class] = e.cseq
		}
	}
	// walk runs the admission simulation; with emit set it re-sends
	// exactly the entries an in-order client will admit.
	walk := func(emit func(wire []byte)) map[string]int64 {
		cur := make(map[string]int64, len(afters))
		for c, a := range afters {
			cur[c] = a
		}
		for _, e := range l.live() {
			if !want(e.class) || e.cseq <= cur[e.class] || e.cseq < lastSB[e.class] {
				continue
			}
			if e.cseq == cur[e.class]+1 || e.state {
				cur[e.class] = e.cseq
				if emit != nil {
					emit(e.wire)
				}
			}
		}
		return cur
	}
	cur := walk(nil)
	for _, r := range l.classes {
		if want(r.class) && cur[r.class] < r.head {
			return heads, false
		}
	}
	walk(emit)
	return heads, true
}

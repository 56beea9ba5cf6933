package floor

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dmps/internal/group"
)

// The exhaustive exploration runs the controller the way the paper
// argues about its Petri nets: enumerate every state a small room can
// reach, and check each one. The room is three members of one group —
// the chair and two participants, all with token priority — and every
// operation the server drives is tried from every reachable state.

const exploreGroup = "room"

var explorers = []group.MemberID{"chair", "ann", "ben"}

// world is one controller state of the explored group in canonical,
// comparable form, so that it is its own deduplication key. Members are
// indexes into explorers, -1 for nobody.
type world struct {
	mode                Mode
	holder              int8
	queue               [3]int8 // in order, padded with -1
	contacts            [3]int8 // each member's direct-contact peer
	approved, suspended uint8   // member bitmasks
	pinned              bool
}

func who(i int8) group.MemberID {
	if i < 0 {
		return ""
	}
	return explorers[i]
}

func indexOf(m group.MemberID) int8 {
	for i, e := range explorers {
		if e == m {
			return int8(i)
		}
	}
	return -1
}

func (w world) String() string {
	var queue []string
	for _, q := range w.queue {
		if q >= 0 {
			queue = append(queue, string(who(q)))
		}
	}
	var contacts []string
	for i, p := range w.contacts {
		if p >= 0 {
			contacts = append(contacts, string(who(int8(i)))+">"+string(who(p)))
		}
	}
	return fmt.Sprintf("{%v holder=%q queue=%v approved=%03b contacts=%v suspended=%03b pinned=%v}",
		w.mode, who(w.holder), queue, w.approved, contacts, w.suspended, w.pinned)
}

// read converts the controller's state into a world, failing on any
// state a world cannot express: a queued holder, a member queued twice,
// or a stranger on the floor.
func read(c *Controller) (world, error) {
	fs := c.state(exploreGroup)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := &fs.st
	w := world{mode: st.Mode, holder: indexOf(st.Holder), queue: [3]int8{-1, -1, -1}, contacts: [3]int8{-1, -1, -1}, pinned: fs.pinned}
	if st.Holder != "" && w.holder < 0 {
		return w, fmt.Errorf("stranger %q holds the floor", st.Holder)
	}
	var queued uint8
	for i, q := range st.Queue {
		b := indexOf(q)
		switch {
		case b < 0:
			return w, fmt.Errorf("stranger %q queued", q)
		case q == st.Holder:
			return w, fmt.Errorf("holder %s is queued in %v", q, st.Queue)
		case queued&(1<<b) != 0:
			return w, fmt.Errorf("%s queued twice in %v", q, st.Queue)
		}
		queued |= 1 << b
		w.queue[i] = b
	}
	for m, p := range st.Contacts {
		w.contacts[indexOf(m)] = indexOf(p)
	}
	for m, on := range st.Approved {
		if on {
			w.approved |= 1 << indexOf(m)
		}
	}
	for m, on := range fs.suspended {
		if on {
			w.suspended |= 1 << indexOf(m)
		}
	}
	return w, nil
}

// load installs w as the controller's state for the group, reusing the
// state's maps: read has already copied out everything an earlier
// operation left in them.
func load(c *Controller, w world) {
	fs := c.state(exploreGroup)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := &fs.st
	st.Mode, st.Holder, fs.pinned = w.mode, who(w.holder), w.pinned
	st.Queue = st.Queue[:0]
	for _, q := range w.queue {
		if q >= 0 {
			st.Queue = append(st.Queue, who(q))
		}
	}
	clear(st.Contacts)
	clear(st.Approved)
	clear(fs.suspended)
	for i := range explorers {
		if p := w.contacts[i]; p >= 0 {
			st.Contacts[explorers[i]] = who(p)
		}
		if w.approved&(1<<i) != 0 {
			st.Approved[explorers[i]] = true
		}
		if w.suspended&(1<<i) != 0 {
			fs.suspended[explorers[i]] = true
		}
	}
}

// exploreOp is one operation tried from every state. run reports
// whether the controller called it a no-op (Decision.Unchanged, or a
// SwitchMode that did not change the mode), and actor names the member
// who performs it, or is about, so liveness can rule its own moves out.
type exploreOp struct {
	name  string
	actor group.MemberID
	run   func(c *Controller) (noop bool)
}

func exploreOps() []exploreOp {
	var ops []exploreOp
	add := func(actor group.MemberID, run func(c *Controller) bool, format string, args ...any) {
		ops = append(ops, exploreOp{name: fmt.Sprintf(format, args...), actor: actor, run: run})
	}
	modes := Modes()
	sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
	for _, m := range explorers {
		m := m
		for _, mode := range modes {
			mode := mode
			targets := []group.MemberID{""}
			if mode == DirectContact {
				targets = explorers
			}
			for _, target := range targets {
				target := target
				add(m, func(c *Controller) bool {
					dec, err := c.Arbitrate(exploreGroup, m, mode, target)
					return (err == nil || errors.Is(err, ErrBusy)) && dec.Unchanged
				}, "%s requests %v %s", m, mode, target)
			}
			for _, pin := range []bool{false, true} {
				pin := pin
				add(m, func(c *Controller) bool {
					_, changed, err := c.SwitchMode(exploreGroup, m, mode, pin)
					return err == nil && !changed
				}, "%s switches to %v pin=%v", m, mode, pin)
			}
		}
		add(m, func(c *Controller) bool {
			_, _ = c.Release(exploreGroup, m)
			return false
		}, "%s releases", m)
		add(m, func(c *Controller) bool {
			c.Evict(exploreGroup, m)
			return false
		}, "%s is evicted", m)
		for _, to := range explorers {
			to := to
			add(m, func(c *Controller) bool {
				_ = c.Pass(exploreGroup, m, to)
				return false
			}, "%s passes to %s", m, to)
			add(m, func(c *Controller) bool {
				dec, err := c.Approve(exploreGroup, m, to)
				return err == nil && dec.Unchanged
			}, "%s approves %s", m, to)
		}
	}
	// Failover: the state leaves and comes back the way every transfer
	// carries it, which must change nothing.
	add("", func(c *Controller) bool {
		return transfer(c, c) == nil
	}, "snapshot and restore")
	return ops
}

// transfer carries the explored group's floor from one controller to
// another as every transfer does: Snapshot, AppendBinary, DecodeSnapshot,
// Restore.
func transfer(from, to *Controller) error {
	snap, err := DecodeSnapshot(from.Snapshot(exploreGroup).AppendBinary(nil))
	if err == nil {
		to.Restore(exploreGroup, snap)
	}
	return err
}

// exploreRoom registers the explored room: the chair and two
// participants, all with token priority.
func exploreRoom(tb testing.TB) *group.Registry {
	reg := group.NewRegistry()
	for i, id := range explorers {
		role := group.Participant
		if i == 0 {
			role = group.Chair
		}
		if err := reg.Register(group.Member{ID: id, Role: role, Priority: 5 - i}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := reg.CreateGroup(exploreGroup, explorers[0]); err != nil {
		tb.Fatal(err)
	}
	for _, id := range explorers[1:] {
		if err := reg.Join(exploreGroup, id); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// TestExploreController walks every state the three-member room can
// reach from a fresh group, under every registered policy and every
// operation, and checks in each: at most one member holds the token;
// the holder is never queued; no member is queued twice; a reported
// no-op left the floor as it was; the state's snapshot, encoded and
// decoded, restores to the state it was taken from, and the restored
// controller answers every operation as the original does (one-step
// bisimulation); and every queued member can still come to deliver
// without acting again itself, so no request is ever lost.
func TestExploreController(t *testing.T) {
	reg := exploreRoom(t)
	c, restored := NewController(reg, nil), NewController(reg, nil)
	ops := exploreOps()

	type edge struct {
		to    int
		actor group.MemberID
	}
	var worlds []world
	var edges [][]edge
	// parent and via record how the search first reached each world.
	var parent []int
	var via []string
	seen := map[world]int{}
	visit := func(w world, from int, how string) int {
		if i, ok := seen[w]; ok {
			return i
		}
		seen[w] = len(worlds)
		worlds, edges, parent, via = append(worlds, w), append(edges, nil), append(parent, from), append(via, how)
		return len(worlds) - 1
	}
	path := func(i int) string {
		var steps []string
		for ; i > 0; i = parent[i] {
			steps = append([]string{via[i]}, steps...)
		}
		return strings.Join(append([]string{"a fresh group"}, steps...), "; ")
	}
	start, err := read(c)
	if err != nil {
		t.Fatal(err)
	}
	visit(start, -1, "")
	for i := 0; i < len(worlds); i++ {
		w := worlds[i]
		snap, err := checkWorld(c, restored, w)
		if err != nil {
			t.Fatalf("%v: %v; reached by: %s", w, err, path(i))
		}
		for _, op := range ops {
			load(c, w)
			noop := op.run(c)
			next, err := read(c)
			if err != nil {
				t.Fatalf("%s from %v: %v; reached by: %s", op.name, w, err, path(i))
			}
			restored.Restore(exploreGroup, snap)
			op.run(restored)
			if twin, err := read(restored); err != nil || twin != next {
				t.Fatalf("%s from %v: the restored floor reaches %v (%v), the original %v; reached by: %s", op.name, w, twin, err, next, path(i))
			}
			if floor := func(w world) world { w.pinned = false; return w }; noop && floor(next) != floor(w) {
				t.Fatalf("%s from %v reported a no-op but left %v; reached by: %s", op.name, w, next, path(i))
			}
			edges[i] = append(edges[i], edge{to: visit(next, i, op.name), actor: op.actor})
		}
	}
	t.Logf("%d states, %d operations each", len(worlds), len(ops))

	// Liveness, per member m: the states from which m can come to
	// deliver through moves by others alone — a backward fixed point
	// over the edges no move of m's own (a request, a release, its
	// eviction) labels. Every state that queues m must be among them.
	// Delivering is the capability a request asks for: the token
	// holder's, or everyone's in a mode where everyone sends, or the
	// moderating chair's.
	for b, m := range explorers {
		reaches := make([]bool, len(worlds))
		for i, w := range worlds {
			load(c, w)
			reaches[i] = c.CapabilityFor(exploreGroup, m).MessageWindow
		}
		for grew := true; grew; {
			grew = false
			for i := range worlds {
				if reaches[i] {
					continue
				}
				for _, e := range edges[i] {
					if e.actor != m && reaches[e.to] {
						reaches[i], grew = true, true
						break
					}
				}
			}
		}
		for i, w := range worlds {
			for _, q := range w.queue {
				if q == int8(b) && !reaches[i] {
					t.Errorf("%s is queued in %v but can never deliver unless it acts again; reached by: %s", m, w, path(i))
				}
			}
		}
	}
}

// checkWorld asserts what read cannot: that at most one member holds
// the token, and that a held floor lets nobody else deliver (but the
// chair who moderates it). It then carries the state to restored, which
// must read back as w, and returns the decoded snapshot it restored.
func checkWorld(c, restored *Controller, w world) (Snapshot, error) {
	load(c, w)
	holders := 0
	for i, m := range explorers {
		cap := c.CapabilityFor(exploreGroup, m)
		if cap.PassToken {
			holders++
		}
		if w.holder >= 0 && int8(i) != w.holder && cap.MessageWindow && !(w.mode == ModeratedQueue && i == 0) {
			return Snapshot{}, fmt.Errorf("%s may deliver while %s holds the floor", m, who(w.holder))
		}
	}
	if holders > 1 {
		return Snapshot{}, fmt.Errorf("%d members hold the token", holders)
	}
	snap, err := DecodeSnapshot(c.Snapshot(exploreGroup).AppendBinary(nil))
	if err != nil {
		return snap, fmt.Errorf("its snapshot does not decode: %v", err)
	}
	restored.Restore(exploreGroup, snap)
	if got, err := read(restored); err != nil || got != w {
		return snap, fmt.Errorf("its snapshot restores as %v (%v)", got, err)
	}
	return snap, nil
}

// FuzzDecodeSnapshot feeds DecodeSnapshot hostile bytes, seeded with the
// encodings of states the explorer's operations reach. A decode must
// fail or succeed without panicking; a success holds no more items than
// the bytes it came from, and encodes back to bytes that decode to the
// same snapshot.
func FuzzDecodeSnapshot(f *testing.F) {
	c := NewController(exploreRoom(f), nil)
	for _, op := range exploreOps() {
		op.run(c)
		f.Add(c.Snapshot(exploreGroup).AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if n := len(s.Queue) + len(s.Suspended) + len(s.Approved) + len(s.Contacts); n > len(data) {
			t.Fatalf("%d bytes decoded as %d items", len(data), n)
		}
		again, err := DecodeSnapshot(s.AppendBinary(nil))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("%+v re-encodes as %+v (%v)", s, again, err)
		}
	})
}

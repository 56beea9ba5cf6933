package swarm

import (
	"fmt"
	"sort"
	"sync"

	"dmps/internal/floor"
	"dmps/internal/protocol"
)

// FloorEvent is one logged floor transition as a swarm member observed
// it: the fields of the server's authoritative log entry that every
// recipient must agree on. QueuePosition is deliberately absent — the
// server personalizes it per recipient, so two members legitimately see
// different copies of the same log position there.
type FloorEvent struct {
	Group  string `json:"group"`
	CSeq   int64  `json:"cseq"`
	GSeq   int64  `json:"gseq"`
	Event  string `json:"event"`
	Mode   string `json:"mode,omitempty"`
	Holder string `json:"holder,omitempty"`
	Member string `json:"member,omitempty"`
}

// floorRecorder taps every message a mix's clients receive and keeps
// one record per (group, log position). Members of a group all receive
// the same logged floor events, so the recorder deduplicates — and any
// two members disagreeing about what a log position said is itself a
// finding (a split-brain symptom), noted as a conflict.
type floorRecorder struct {
	mu        sync.Mutex
	seen      map[string]FloorEvent
	conflicts []string
}

func newFloorRecorder() *floorRecorder {
	return &floorRecorder{seen: make(map[string]FloorEvent)}
}

// tap records msg if it is a logged floor event. It runs synchronously
// in client read loops, so it filters cheaply and never blocks.
func (r *floorRecorder) tap(msg protocol.Message) {
	if msg.Type != protocol.TFloorEvent || msg.GSeq == 0 || msg.Group == "" {
		return
	}
	var body protocol.FloorEventBody
	if msg.Into(&body) != nil {
		return
	}
	ev := FloorEvent{Group: msg.Group, CSeq: msg.CSeq, GSeq: msg.GSeq, Event: body.Event, Mode: body.Mode, Holder: body.Holder, Member: body.Member}
	key := fmt.Sprintf("%s\x00%d", ev.Group, ev.CSeq)
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.seen[key]
	if !ok {
		r.seen[key] = ev
		return
	}
	if prev != ev {
		r.conflicts = append(r.conflicts, disagreement("conflict", prev, ev))
	}
}

// disagreement describes two records of one log position that differ.
func disagreement(kind string, a, b FloorEvent) string {
	return fmt.Sprintf("%s: group %s cseq %d recorded as %s member=%s holder=%s gseq=%d and as %s member=%s holder=%s gseq=%d",
		kind, a.Group, a.CSeq, a.Event, a.Member, a.Holder, a.GSeq, b.Event, b.Member, b.Holder, b.GSeq)
}

// drain returns the recorded transitions sorted by (group, cseq) plus
// any in-run conflicts, and resets nothing — a mix drains exactly once.
func (r *floorRecorder) drain() ([]FloorEvent, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FloorEvent, 0, len(r.seen))
	for _, ev := range r.seen {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].CSeq < out[j].CSeq
	})
	return out, r.conflicts
}

// FloorCheck is the invariant checker's verdict over a set of recorded
// floor transitions.
type FloorCheck struct {
	// Groups is how many groups the events span.
	Groups int
	// Gaps counts breaks in per-group CSeq density — positions the
	// recorders never saw (compaction, late joins). The replay stops at
	// the first gap rather than guessing across it, so gaps bound the
	// checker's reach; they are not violations.
	Gaps int
	// Violations are the exclusivity breaches, deduplicated.
	Violations []string
}

// CheckFloor replays each group's recorded floor events in log order
// against the floor-exclusivity invariant. conflicts (a recorder's or a
// prior shard report's findings) are carried into the verdict verbatim.
//
// The server runs every floor transition inside its own log append, so
// CSeq order is the order of the transitions themselves, and a
// state-bearing event's Holder is the holder its own transition left.
// The replay keeps one holder per group, free at CSeq 1, and flags a
// grant while someone else holds, a repeat grant to the holder (a
// repeat request logs nothing), a release or pass by a non-holder, and
// any event whose Holder disagrees with the replay. A grant naming no
// holder (a mode where everyone sends) and a mode_switch free the
// floor; a release or pass hands it to the Holder it names. Direct
// Contact grants are skipped: they run beside the group floor and
// carry no claim on it. Only the dense CSeq prefix from 1 is replayed:
// a view that missed the group's genesis, or a position, cannot know
// who held across the hole.
func CheckFloor(events []FloorEvent, conflicts []string) FloorCheck {
	check := FloorCheck{}
	violations := append([]string{}, conflicts...)
	evs := append([]FloorEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Group != evs[j].Group {
			return evs[i].Group < evs[j].Group
		}
		return evs[i].CSeq < evs[j].CSeq
	})
	directContact := floor.DirectContact.String()
	var first FloorEvent // the first record of the current log position
	holder, dense := "", false
	for i, ev := range evs {
		switch {
		case i > 0 && ev.Group == first.Group && ev.CSeq == first.CSeq:
			if ev != first {
				violations = append(violations, disagreement("split-brain", first, ev))
			}
			continue
		case i == 0 || ev.Group != first.Group:
			check.Groups++
			holder, dense = "", ev.CSeq == 1
		case ev.CSeq != first.CSeq+1:
			check.Gaps++
			dense = false
		}
		if first = ev; !dense {
			continue
		}
		flag := func(format string, args ...any) {
			violations = append(violations, fmt.Sprintf("group %s cseq %d: ", ev.Group, ev.CSeq)+fmt.Sprintf(format, args...))
		}
		switch {
		case ev.Event == "granted" && ev.Mode == directContact:
			continue // a private window, not the group floor
		case ev.Event == "granted" && ev.Holder == "":
			holder = ""
		case ev.Event == "granted":
			if holder == ev.Member {
				flag("repeat grant to holder %s", ev.Member)
			} else if holder != "" {
				flag("grant to %s while %s holds", ev.Member, holder)
			}
			holder = ev.Member
		case ev.Event == "released" || ev.Event == "passed":
			if ev.Member != holder {
				flag("%s by non-holder %s (holder %q)", ev.Event, ev.Member, holder)
			}
			holder = ev.Holder
		case ev.Event == "mode_switch":
			holder = ""
		}
		if ev.Holder != holder {
			flag("%s event names holder %q, replay has %q", ev.Event, ev.Holder, holder)
		}
	}

	seen := map[string]bool{}
	for _, v := range violations {
		if !seen[v] {
			seen[v] = true
			check.Violations = append(check.Violations, v)
		}
	}
	return check
}

// floorEventsOrEmpty keeps the report's floor_events key a JSON array
// even when a mix recorded nothing.
func floorEventsOrEmpty(evs []FloorEvent) []FloorEvent {
	if evs == nil {
		return []FloorEvent{}
	}
	return evs
}

package grouplog

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// all is the class filter that wants everything.
func all(string) bool { return true }

// only wants a single class.
func only(class string) func(string) bool {
	return func(c string) bool { return c == class }
}

// appendClass appends n events of one class whose wire bytes are
// "class:cseq", so replays can be checked for order and density. state
// marks them state-bearing.
func appendClass(t testing.TB, lg *Log, class string, state bool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := lg.Append(class, state, func(_, cseq int64) ([]byte, error) {
			return []byte(class + ":" + strconv.FormatInt(cseq, 10)), nil
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendAssignsDenseSeqsAndDelivers(t *testing.T) {
	lg := newLog(4)
	var delivered []string
	for i := 1; i <= 3; i++ {
		gseq, err := lg.Append("board", false, func(gseq, cseq int64) ([]byte, error) {
			if gseq != int64(i) || cseq != int64(i) {
				t.Errorf("append %d numbered (%d, %d)", i, gseq, cseq)
			}
			return []byte(strconv.FormatInt(cseq, 10)), nil
		}, func(wire []byte) {
			delivered = append(delivered, string(wire))
		})
		if err != nil {
			t.Fatal(err)
		}
		if gseq != int64(i) {
			t.Fatalf("gseq = %d, want %d", gseq, i)
		}
	}
	if lg.Head() != 3 || len(delivered) != 3 {
		t.Fatalf("head = %d, delivered = %v", lg.Head(), delivered)
	}
	if heads := lg.ClassHeads(); heads["board"] != 3 {
		t.Fatalf("class heads = %v", heads)
	}
	// GSeq is log-wide, CSeq per class: a second class starts at 1.
	if _, err := lg.Append("floor", true, func(gseq, cseq int64) ([]byte, error) {
		if gseq != 4 || cseq != 1 {
			t.Errorf("cross-class append numbered (%d, %d), want (4, 1)", gseq, cseq)
		}
		return []byte("f"), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendEncodeErrorLeavesLogUntouched(t *testing.T) {
	lg := newLog(4)
	appendClass(t, lg, "board", false, 2)
	if _, err := lg.Append("board", false, func(int64, int64) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}, nil); err == nil {
		t.Fatal("encode error not surfaced")
	}
	if lg.Head() != 2 || lg.ClassHeads()["board"] != 2 {
		t.Fatalf("log moved after failed append: head %d, cheads %v", lg.Head(), lg.ClassHeads())
	}
	appendClass(t, lg, "board", false, 1)
	if lg.Head() != 3 {
		t.Fatalf("head = %d after recovery append", lg.Head())
	}
}

func TestReplaySuffixAndTrim(t *testing.T) {
	lg := newLog(4)
	appendClass(t, lg, "board", false, 10) // retains board 7..10

	// Caught-up caller: nothing to emit, complete.
	heads, complete := lg.Replay(map[string]int64{"board": 10}, all,
		func([]byte) { t.Error("emitted at head") })
	if heads["board"] != 10 || !complete {
		t.Fatalf("at-head replay = (%v, %v)", heads, complete)
	}

	// In-window suffix replays in order.
	var got []string
	_, complete = lg.Replay(map[string]int64{"board": 7}, all, func(wire []byte) {
		got = append(got, string(wire))
	})
	if !complete {
		t.Fatal("suffix replay incomplete")
	}
	if want := []string{"board:8", "board:9", "board:10"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}

	// The oldest retained event is 7: after=6 still connects…
	if _, complete = lg.Replay(map[string]int64{"board": 6}, all, func([]byte) {}); !complete {
		t.Fatal("after=6 should still connect")
	}
	// …but after=5 was trimmed out; nothing may be emitted.
	if _, complete = lg.Replay(map[string]int64{"board": 5}, all,
		func([]byte) { t.Error("emitted past trim") }); complete {
		t.Fatal("trimmed replay should be incomplete")
	}
}

// TestCompactionRetainsLatestStatePerClass: under capacity pressure the
// log drops events superseded by a newer state-bearing event of their
// class, and keeps each class's latest state-bearing event no matter
// how old — so a client far behind still connects by jumping onto it.
func TestCompactionRetainsLatestStatePerClass(t *testing.T) {
	lg := newLog(6)
	appendClass(t, lg, "floor", true, 5)   // floor 1..5, each a restatement
	appendClass(t, lg, "suspend", true, 2) // suspend 1..2
	appendClass(t, lg, "board", false, 10) // board churn forces compaction

	// Superseded floor/suspend events are gone; the latest restatement
	// of each class survives, plus the trimmed board suffix. A client
	// current through board op 6 connects everything: the state classes
	// by jumping onto their anchors, the board by exact continuation.
	var got []string
	_, complete := lg.Replay(map[string]int64{"board": 6}, all, func(wire []byte) {
		got = append(got, string(wire))
	})
	if !complete {
		t.Fatalf("replay should connect via state anchors; retained %v", got)
	}
	want := []string{"floor:5", "suspend:2", "board:7", "board:8", "board:9", "board:10"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("retained %v, want %v", got, want)
	}

	// A client current on board but stale on floor converges from the
	// floor anchor alone.
	got = nil
	_, complete = lg.Replay(map[string]int64{"floor": 1, "board": 10}, only("floor"), func(wire []byte) {
		got = append(got, string(wire))
	})
	if !complete || fmt.Sprint(got) != fmt.Sprint([]string{"floor:5"}) {
		t.Fatalf("floor catch-up = (%v, %v)", got, complete)
	}

	// Board ops are not state-bearing: a client whose board cursor
	// predates the retained suffix cannot connect and must snapshot.
	if _, complete = lg.Replay(map[string]int64{"board": 2}, only("board"), func([]byte) {}); complete {
		t.Fatal("board gap must force the snapshot fallback")
	}
}

// TestClassFilterSkipsUnwantedClasses: replay emits only wanted
// classes, unwanted classes never affect completeness, and a run of
// state-bearing restatements collapses to its newest member — replaying
// superseded restatements would only flood the queue being repaired.
func TestClassFilterSkipsUnwantedClasses(t *testing.T) {
	lg := newLog(16)
	appendClass(t, lg, "board", false, 4)
	appendClass(t, lg, "floor", true, 2)
	var got []string
	_, complete := lg.Replay(map[string]int64{}, only("floor"), func(wire []byte) {
		got = append(got, string(wire))
	})
	if !complete || fmt.Sprint(got) != fmt.Sprint([]string{"floor:2"}) {
		t.Fatalf("filtered replay = (%v, %v)", got, complete)
	}
}

// TestDirectoryEntriesStayInside: directory entries take GSeqs like
// any event, but a replay that wants every class emits none, counts
// none towards convergence and names no directory head, and neither
// does ClassHeads — nor the plane's digest, which does not walk a log
// holding only them. None keeps its bytes.
func TestDirectoryEntriesStayInside(t *testing.T) {
	p := NewPlane(16)
	lg := p.Get("g")
	appendClass(t, lg, ClassDirectory, true, 2)
	appendClass(t, lg, "floor", true, 1)
	appendClass(t, lg, ClassDirectory, true, 1)
	appendClass(t, p.Get(MemberKey("alice#1")), ClassDirectory, true, 1)
	var got []string
	heads, complete := lg.Replay(map[string]int64{}, all, func(wire []byte) { got = append(got, string(wire)) })
	if !complete || fmt.Sprint(got) != "[floor:1]" || fmt.Sprint(heads) != "map[floor:1]" || lg.Head() != 4 {
		t.Fatalf("replay (%v, heads %v, complete %v), head %d", got, heads, complete, lg.Head())
	}
	if h := lg.ClassHeads(); fmt.Sprint(h) != "map[floor:1]" {
		t.Fatalf("class heads %v", h)
	}
	if digest := p.ClassHeads(); fmt.Sprint(digest) != "map[g:map[floor:1]]" {
		t.Fatalf("plane digest %v", digest)
	}
	if _, shown := p.shown.Get(MemberKey("alice#1")); shown {
		t.Fatal("the digest walks a log holding only directory entries")
	}
	var kept []string
	for _, e := range lg.Dump() {
		kept = append(kept, fmt.Sprintf("%d:%s", e.GSeq, e.Wire))
	}
	if fmt.Sprint(kept) != "[1: 2: 3:floor:1 4:]" {
		t.Fatalf("retained %v", kept)
	}
}

func TestPlaneKeysAndClassHeads(t *testing.T) {
	p := NewPlane(8)
	if p.Cap() != 8 {
		t.Fatalf("cap = %d", p.Cap())
	}
	appendClass(t, p.Get("class"), "board", false, 3)
	appendClass(t, p.Get(MemberKey("alice#1")), "invite", false, 1)
	p.Get("idle") // created but empty: must not appear in the digest
	heads := p.ClassHeads()
	if len(heads) != 2 || heads["class"]["board"] != 3 || heads[MemberKey("alice#1")]["invite"] != 1 {
		t.Fatalf("heads = %v", heads)
	}
	if _, ok := p.Peek("never"); ok {
		t.Fatal("Peek created a log")
	}
	p.Drop("class")
	if _, ok := p.Peek("class"); ok {
		t.Fatal("Drop left the log behind")
	}
	if NewPlane(0).Cap() != DefaultCap {
		t.Fatalf("default cap = %d", NewPlane(0).Cap())
	}
}

// TestConcurrentAppendBackfillChurn is the -race witness for the log
// plane: writers append to a handful of keys while readers replay
// suffixes and poll heads. Every complete replay must observe an
// admissible, in-order suffix — the lock held across append+deliver
// and across replay emits is exactly what makes that true.
func TestConcurrentAppendBackfillChurn(t *testing.T) {
	p := NewPlane(32)
	keys := []string{"g1", "g2", MemberKey("m#1")}
	const writers, perWriter = 4, 200

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		for _, key := range keys {
			writersWG.Add(1)
			go func(key string) {
				defer writersWG.Done()
				lg := p.Get(key)
				for i := 0; i < perWriter; i++ {
					if _, err := lg.Append("board", false, func(_, cseq int64) ([]byte, error) {
						return []byte(strconv.FormatInt(cseq, 10)), nil
					}, func([]byte) {}); err != nil {
						t.Error(err)
						return
					}
				}
			}(key)
		}
	}
	stop := make(chan struct{})
	var readersWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			key := keys[r%len(keys)]
			lg := p.Get(key)
			after := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := after
				heads, complete := lg.Replay(map[string]int64{"board": after}, all, func(wire []byte) {
					got, _ := strconv.ParseInt(string(wire), 10, 64)
					if got != last+1 {
						t.Errorf("replay gap: %d after %d", got, last)
					}
					last = got
				})
				if complete {
					after = last
					if after != heads["board"] {
						t.Errorf("complete replay stopped at %d, head %d", last, heads["board"])
					}
				} else {
					after = heads["board"] // snapshot fallback: jump to head
				}
				_ = p.ClassHeads()
			}
		}(r)
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	for _, key := range keys {
		if head := p.Get(key).Head(); head != int64(writers*perWriter) {
			t.Errorf("%s head = %d, want %d", key, head, writers*perWriter)
		}
	}
}

package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dmps/internal/protocol"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: none qualifies
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {999, 0.90}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {99999, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != (tc.want != 0) || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, p, ok, tc.want)
		}
	}

	// 1..1000: exactly ten samples lie beyond p99, and the values
	// reported are samples, not interpolations.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i)
	}
	d := describe(samples)
	if d.Samples != 1000 || d.P50 != 500 || d.P99 != 990 || d.TailPercentile != 0.99 || d.Tail != 990 {
		t.Errorf("describe(1..1000) = %+v", d)
	}
	if d := describe([]float64{3, 1, 2}); d.P50 != 2 || d.P99 != 0 || d.Tail != 0 {
		t.Errorf("describe of three samples reports a tail: %+v", d)
	}
}

func TestMedianIQRMatchesExclusiveQuartiles(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	med, noise := medianIQR([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || noise != (8.25-2.75)/5.5 {
		t.Errorf("medianIQR(1..10) = %v, %v", med, noise)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) ([]time.Duration, []string) {
		rng := rand.New(rand.NewSource(seed))
		due := jitteredSchedule(rng, 50, 10*time.Second)
		lines := make([]string, 50)
		for i := range lines {
			lines[i] = payload(rng, 40, 120)
		}
		return due, lines
	}
	dueA, linesA := gen(42)
	dueB, linesB := gen(42)
	if !reflect.DeepEqual(dueA, dueB) || !reflect.DeepEqual(linesA, linesB) {
		t.Fatal("same seed produced a different schedule or different payloads")
	}
	if dueC, linesC := gen(43); reflect.DeepEqual(dueA, dueC) || reflect.DeepEqual(linesA, linesC) {
		t.Fatal("a different seed produced the same inputs")
	}
	if !sort.SliceIsSorted(dueA, func(i, j int) bool { return dueA[i] < dueA[j] }) {
		t.Error("schedule is not ascending")
	}
	if len(dueA) != 500 {
		t.Fatalf("%d sends scheduled over 10 s at 50/s", len(dueA))
	}
	for i, d := range dueA {
		if lo := time.Duration(i) * 20 * time.Millisecond; d < lo || d >= lo+20*time.Millisecond {
			t.Errorf("send %d at %v falls outside its own interval", i, d)
		}
	}
	for _, l := range linesA {
		if len(l) < 40 || len(l) > 120 {
			t.Errorf("payload length %d outside 40..120", len(l))
		}
	}
}

func TestFailedShareAccounting(t *testing.T) {
	var tl tally
	tl.op("chat", nil)
	tl.op("chat", errors.New("client: request timed out")) // a timed-out request counts
	tl.attempt(16)
	tl.fail(1, "listener3: lines missing at run end") // and so does a missing delivery
	tl.fail(0, "no drops")                            // a zero count is not a failure
	if tl.attempted != 18 || tl.failed != 2 {
		t.Errorf("attempted %d failed %d, want 18 and 2", tl.attempted, tl.failed)
	}
	if len(tl.notes) != 2 {
		t.Errorf("notes %q", tl.notes)
	}
}

func floorEvent(event, member, holder string) protocol.FloorEventBody {
	return protocol.FloorEventBody{Mode: "equal-control", Event: event, Member: member, Holder: holder}
}

func TestFloorChecker(t *testing.T) {
	type step struct {
		cseq int64
		ev   protocol.FloorEventBody
	}
	for _, tc := range []struct {
		name  string
		dense bool
		steps []step
		want  string // substring of the one violation; "" for none
	}{
		{"hand-off ring", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{2, floorEvent("queued", "b", "a")},
			{3, floorEvent("released", "a", "b")}, // the promotion: released with Holder = next
			{4, floorEvent("queued", "c", "b")},
			{5, floorEvent("released", "b", "c")},
			{6, floorEvent("released", "c", "")},
			{7, floorEvent("granted", "a", "a")},
		}, ""},
		{"queued appended after the release's state change", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{2, floorEvent("queued", "b", "b")}, // holder re-read at append: already b
			{3, floorEvent("released", "a", "b")},
			{4, floorEvent("released", "b", "")},
		}, ""},
		{"two holders", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{2, floorEvent("granted", "b", "b")},
		}, "two holders"},
		{"duplicate grant", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{2, floorEvent("granted", "a", "a")},
		}, "duplicate grant"},
		{"stray release", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{2, floorEvent("released", "b", "")},
		}, "without a grant"},
		{"release of a free floor", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{2, floorEvent("released", "a", "")},
			{3, floorEvent("released", "a", "")},
		}, "without a grant"},
		{"hole at a session that must see everything", true, []step{
			{1, floorEvent("granted", "a", "a")},
			{3, floorEvent("released", "a", "")},
		}, "sequence hole"},
		{"resume jumps onto a restatement", false, []step{
			{1, floorEvent("granted", "a", "a")},
			{40, floorEvent("released", "x", "")}, // restates: the floor is free
			{41, floorEvent("granted", "b", "b")},
			{41, floorEvent("granted", "b", "b")}, // backfill overlapping live delivery
		}, ""},
	} {
		chk := floorChecker{group: "g", dense: tc.dense}
		for _, s := range tc.steps {
			chk.observe(s.cseq, s.ev)
		}
		switch {
		case tc.want == "" && len(chk.violations) != 0:
			t.Errorf("%s: flagged %q", tc.name, chk.violations)
		case tc.want != "" && (len(chk.violations) != 1 || !strings.Contains(chk.violations[0], tc.want)):
			t.Errorf("%s: violations %q, want one containing %q", tc.name, chk.violations, tc.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNamesMatchBenchmarkJSON holds the program and BENCHMARK.json to
// exactly the same workloads and metrics, units and bounds included.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, def := range workloads {
		for _, pc := range def.path {
			found := false
			for _, m := range perLayer {
				found = found || m.name == pc.metric
			}
			if !found {
				t.Errorf("%s: blocking path names %q, which is not a per-layer metric", def.name, pc.metric)
			}
		}
	}
}

// contractKeys decodes a contract line and returns its metric names.
func contractKeys(t *testing.T, rep *report) []string {
	t.Helper()
	line, err := contractLine(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool            `json:"correct"`
		Attempted *int64           `json:"attempted"`
		Failed    *int64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("contract line %s: %v", line, err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || *out.Attempted < 1 {
		t.Fatalf("contract line %s lacks correct/attempted/failed", line)
	}
	keys := make([]string, 0, len(out.Metrics))
	for k, v := range out.Metrics {
		keys = append(keys, k+" "+v.Unit)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(defs []metricDef) []string {
	keys := make([]string, 0, len(defs))
	for _, m := range defs {
		keys = append(keys, m.name+" "+m.unit)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs every workload for a second against its real
// deployment, untraced and traced, with the correctness checks on: the
// harness end to end. It also holds the emitted JSON to the metric
// names BENCHMARK.json lists, and the run to the hygiene rules — no
// failed operation, no leaked goroutine, no temporary directory left.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real deployments")
	}
	outDir := t.TempDir()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			seconds := 1.0
			if traced {
				seconds = 1 / tracedShare
			}
			rep, err := runWorkload(runConfig{workload: def.name, seed: 3, seconds: seconds, traced: traced, outDir: outDir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: violations %q", def.name, traced, rep.Violations)
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %q", def.name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			if rep.LeakedGoroutines != 0 {
				t.Errorf("%s traced=%v: %d goroutines leaked", def.name, traced, rep.LeakedGoroutines)
			}
			want := wantKeys(endToEnd)
			if traced {
				want = wantKeys(perLayer)
			}
			if got := contractKeys(t, rep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed metrics %q, BENCHMARK.json lists %q", def.name, traced, got, want)
			}
			for name, v := range rep.EndToEnd {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", def.name, name, v.Value)
				}
			}
			if traced {
				smokeTraced(t, def, rep)
			}
		}
	}
	left, err := os.ReadDir(filepath.Join(outDir, "tmp"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d temporary directories left behind, first %s", len(left), left[0].Name())
	}
}

func smokeTraced(t *testing.T, def workloadDef, rep *report) {
	t.Helper()
	data, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", def.name, s.ID, s.Name)
		}
	}
	for _, layer := range []string{
		"protocol.EncodeBinary", "protocol.DecodeBinary", "transport.Send", "transport.SendAll", "transport.Send+Recv",
		"floor.Arbitrate", "floor.Release", "group.GroupMemberIDs", "grouplog.Append", "grouplog.Replay",
		"grouplog.WAL.Append", "whiteboard.Append", "whiteboard.Apply", "server.Broadcast",
		"cluster.AckTable.Track+Ack", "cluster.ReplicaStore.ApplyEvent", "cluster.WrapForward",
	} {
		if !names[layer] {
			t.Errorf("%s: trace has no %s span", def.name, layer)
		}
	}
	for _, probe := range []string{"protocol.encode_ns", "transport.hop_ns", "floor.arbitrate_ns", "grouplog.append_ns", "wal.append_ns", "server.broadcast_ns_per_member"} {
		if rep.PerLayer[probe].Value <= 0 {
			t.Errorf("%s: %s is %v", def.name, probe, rep.PerLayer[probe].Value)
		}
	}
	if def.name == "lecture" {
		// The open question the ROADMAP asked: the lecture's propagation
		// delay is the line sitting in the server's coalescing batch.
		hold, prop := rep.PerLayer["server.hold_ms"].Value, rep.PerLayer["traced.op_p50_ms"].Value
		if hold < 0.9*prop {
			t.Errorf("lecture: server.hold_ms %.1f accounts for less than 90%% of the %.1f ms propagation median", hold, prop)
		}
	}
}

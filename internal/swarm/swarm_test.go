package swarm

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/core"
	"dmps/internal/metrics"
	"dmps/internal/protocol"
	"dmps/internal/workload"
)

// labOptions keeps the fleet tiny and the probes fast: the point is
// that every mix produces measurements, not throughput.
func labOptions(t *testing.T) (Options, *core.Cluster) {
	t.Helper()
	lab, err := core.StartCluster(core.ClusterOptions{
		Options: core.Options{Seed: 7},
		Nodes:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	return Options{
		Dial: func(cfg client.Config) (*client.Client, error) {
			// Each member gets its own simulated host, like real fleets.
			cfg.Network = lab.Net.From(cfg.Name)
			cfg.Addr = core.RouterAddr
			cfg.Timeout = 5 * time.Second
			return client.Dial(cfg)
		},
		Seed:    42,
		Members: 3,
		Ops:     12,
		Mean:    2 * time.Millisecond,
		Settle:  3 * time.Second,
	}, lab
}

// TestSwarmMixesProduceHistograms runs every scripted mix against a
// two-node netsim cluster and checks each yields the measurements its
// SLO report is built from: grant samples for every mix, propagation
// samples for the fan-out mixes, and no errors — deterministically,
// with no real network involved.
func TestSwarmMixesProduceHistograms(t *testing.T) {
	opts, _ := labOptions(t)
	results, err := Run(opts, Mixes...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Mixes) {
		t.Fatalf("got %d results, want %d", len(results), len(Mixes))
	}
	for _, r := range results {
		if r.Errors > 0 {
			t.Errorf("%s: %d errors", r.Mix, r.Errors)
		}
		if r.Grant.Count() == 0 {
			t.Errorf("%s: empty grant histogram", r.Mix)
		}
		if q := r.Grant.Quantile(0.99); !(q > 0) {
			t.Errorf("%s: grant p99 = %v, want > 0", r.Mix, q)
		}
		switch r.Mix {
		case "lecture", "reconnect-storm":
			if r.Prop.Count() == 0 {
				t.Errorf("%s: empty propagation histogram", r.Mix)
			}
		}
	}
}

// TestSwarmReconnectStormSurvivesKill wires the Kill hook to a node
// kill: the storm reconnects through the failover and still measures
// time back to service for every member.
func TestSwarmReconnectStormSurvivesKill(t *testing.T) {
	opts, lab := labOptions(t)
	opts.Kill = func() { lab.KillNode(1) }
	opts.Settle = 5 * time.Second
	results, err := Run(opts, "reconnect-storm")
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Grant.Count() == 0 {
		t.Fatalf("no reconnects measured (errors=%d)", r.Errors)
	}
}

// TestSwarmChaosOwnerKillAndRestart arms the chaos mix's full drill on
// a three-node WAL-backed cluster: the group's owner is felled
// mid-floor-hold, load rides out the failover onto the replica, and the
// restart leg brings the node back (WAL replay) and migrates its
// partitions home through Router.Recover — all with zero errors, which
// is the mix's definition of "no logged state was lost".
func TestSwarmChaosOwnerKillAndRestart(t *testing.T) {
	lab, err := core.StartCluster(core.ClusterOptions{
		Options:           core.Options{Seed: 7},
		Nodes:             3,
		ReplicationFactor: 2,
		WALDir:            t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	opts := Options{
		Dial: func(cfg client.Config) (*client.Client, error) {
			cfg.Network = lab.Net.From(cfg.Name)
			cfg.Addr = core.RouterAddr
			cfg.Timeout = 5 * time.Second
			return client.Dial(cfg)
		},
		Seed:    42,
		Members: 3,
		Ops:     12,
		Mean:    2 * time.Millisecond,
		Settle:  8 * time.Second,
	}
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = core.NodeAddr(i)
	}
	pmap := cluster.NewMap(addrs)
	killed := -1 // written and read under the mix's injection lock
	opts.Chaos = &Chaos{
		KillOwner: func(group string) {
			killed, _ = pmap.Owner(group)
			lab.KillNode(killed)
		},
		Restart: func(group string) {
			if killed < 0 {
				return
			}
			if err := lab.RestartNode(killed); err != nil {
				t.Error(err)
				return
			}
			if err := lab.Router.Recover(killed); err != nil {
				t.Error(err)
			}
		},
	}
	results, err := Run(opts, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Errors > 0 {
		t.Errorf("chaos: %d errors, want 0 (clean convergence)", r.Errors)
	}
	if killed < 0 {
		t.Fatal("kill hook never fired")
	}
	if r.Grant.Count() < 2 {
		t.Errorf("grant samples = %d, want initial grant + post-kill restoration", r.Grant.Count())
	}
	if r.Prop.Count() == 0 {
		t.Error("no propagation samples across the failure")
	}
	// The recovery re-request finds the floor restored still-held: a
	// repeat request, acked as granted and logged as nothing, so the
	// replay must come out violation-free.
	check := CheckFloor(r.Floor, r.FloorConflicts)
	if len(check.Violations) != 0 {
		t.Errorf("chaos run violations: %v", check.Violations)
	}
}

// TestSwarmReport renders results into the BENCH_*.json-compatible
// shape: _meta, one Swarm/<mix> entry with the quantile units, and
// per-node throughput attribution through NodeFor.
func TestSwarmReport(t *testing.T) {
	h := metrics.NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(0.001 * float64(i+1))
	}
	res := []MixResult{{
		Mix: "lecture", Group: "swarm-lecture",
		Ops: 100, Wall: time.Second, Grant: h, Prop: metrics.NewHistogram(nil),
	}}
	opts := Options{Members: 3, Ops: 100, NodeFor: func(string) string { return "node0" }}
	doc := Report(res, nil, opts, "test", "linux", "amd64")
	meta := doc["_meta"]
	if meta["goos"] != "linux" || meta["note"] != "test" {
		t.Fatalf("_meta = %v", meta)
	}
	// A single-process run reports itself as the whole fleet.
	if meta["shards"] != 1 || meta["shard"] != 0 {
		t.Fatalf("_meta shards/shard = %v/%v, want 1/0", meta["shards"], meta["shard"])
	}
	entry := doc["Swarm/lecture"]
	if entry == nil {
		t.Fatal("missing Swarm/lecture entry")
	}
	// The schema the merge path and the CI gates rely on: every key
	// present whatever the mix measured.
	for _, key := range []string{
		"ops", "errors", "wall_ms", "grant_samples", "prop_samples",
		"grant_p50_ms", "grant_p99_ms", "grant_p999_ms",
		"prop_p50_ms", "prop_p99_ms", "prop_p999_ms",
		"grant_hist", "prop_hist", "floor_events", "floor_groups",
		"floor_gaps", "invariant_violations", "violations",
	} {
		if _, ok := entry[key]; !ok {
			t.Errorf("Swarm/lecture missing key %q", key)
		}
	}
	p99, ok := entry["grant_p99_ms"].(float64)
	if !ok || !(p99 > 0) {
		t.Fatalf("grant_p99_ms = %v", entry["grant_p99_ms"])
	}
	// Empty propagation histogram must render as 0, not NaN (invalid JSON).
	if v := entry["prop_p99_ms"].(float64); v != 0 {
		t.Fatalf("prop_p99_ms = %v, want 0 for empty histogram", v)
	}
	if entry["invariant_violations"].(int) != 0 {
		t.Fatalf("invariant_violations = %v for an empty event set", entry["invariant_violations"])
	}
	node := doc["SwarmNode/node0"]
	if node == nil || node["ops"].(int) != 100 {
		t.Fatalf("SwarmNode/node0 = %v", node)
	}
	// The whole document must survive the disk hop shard reports take.
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}
}

// TestSwarmUnknownMix fails fast, before anything dials.
func TestSwarmUnknownMix(t *testing.T) {
	_, err := Run(Options{Dial: func(client.Config) (*client.Client, error) {
		t.Fatal("dialed for an unknown mix")
		return nil, nil
	}}, "rave")
	if err == nil {
		t.Fatal("want error for unknown mix")
	}
}

// TestSwarmBadShard rejects a shard index outside the fleet before
// anything dials.
func TestSwarmBadShard(t *testing.T) {
	_, err := Run(Options{
		Dial: func(client.Config) (*client.Client, error) {
			t.Fatal("dialed with a bad shard index")
			return nil, nil
		},
		Shards: 4, Shard: 4,
	}, "lecture")
	if err == nil {
		t.Fatal("want error for shard outside [0, shards)")
	}
}

// TestFireAt pins the open-loop dispatcher: every slot fires exactly
// once, with its GLOBAL schedule index, and the WaitGroup completes.
func TestFireAt(t *testing.T) {
	slots := []workload.Slot{
		{Index: 3, At: 0},
		{Index: 7, At: time.Millisecond},
		{Index: 11, At: 2 * time.Millisecond},
	}
	var mu sync.Mutex
	fired := map[int]int{}
	fireAt(time.Now(), slots, func(i int) {
		mu.Lock()
		fired[i]++
		mu.Unlock()
	}).Wait()
	if len(fired) != len(slots) {
		t.Fatalf("fired %v, want one call per slot", fired)
	}
	for _, s := range slots {
		if fired[s.Index] != 1 {
			t.Fatalf("slot index %d fired %d times", s.Index, fired[s.Index])
		}
	}
}

// TestSettle pins the settle loop's three exits: immediate return when
// the histogram already holds the expected samples, early drain when
// the count stops growing, and budget expiry when nothing ever arrives.
func TestSettle(t *testing.T) {
	opts := Options{Settle: 150 * time.Millisecond}

	full := metrics.NewHistogram(nil)
	full.Observe(1)
	full.Observe(2)
	start := time.Now()
	settle(opts, full, 2)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("settle with the count reached took %v", d)
	}

	drained := metrics.NewHistogram(nil)
	drained.Observe(1) // one sample, then silence: the early-drain exit
	start = time.Now()
	settle(opts, drained, 100)
	if d := time.Since(start); d >= opts.Settle {
		t.Fatalf("settle did not drain early: %v", d)
	}

	empty := metrics.NewHistogram(nil)
	start = time.Now()
	settle(opts, empty, 1)
	if d := time.Since(start); d < opts.Settle {
		t.Fatalf("settle on an empty histogram returned after %v, want the full %v budget", d, opts.Settle)
	}
}

// TestErrCounter counts non-nil errors only.
func TestErrCounter(t *testing.T) {
	var e errCounter
	e.note(nil)
	e.note(fmt.Errorf("one"))
	e.note(nil)
	e.note(fmt.Errorf("two"))
	if got := e.n.Load(); got != 2 {
		t.Fatalf("errCounter = %d, want 2", got)
	}
}

// TestMixGroup pins the group-naming contract: seed-scoped (re-runs
// get fresh groups), per-shard for the chair mixes in sharded runs, and
// shared fleet-wide for the chairless ones.
func TestMixGroup(t *testing.T) {
	if g := mixGroup("lecture", 42, 1, 0); g != "swarm-lecture-42" {
		t.Fatalf("single-process group = %q", g)
	}
	if a, b := mixGroup("lecture", 1, 1, 0), mixGroup("lecture", 2, 1, 0); a == b {
		t.Fatalf("seed not scoped: %q == %q", a, b)
	}
	if g := mixGroup("lecture", 42, 4, 2); g != "swarm-lecture-42-s2" {
		t.Fatalf("sharded chair-mix group = %q, want per-shard", g)
	}
	if g := mixGroup("flash-crowd", 42, 4, 2); g != "swarm-flash-crowd-42" {
		t.Fatalf("sharded flash-crowd group = %q, want shared fleet-wide", g)
	}
	if g := mixGroup("reconnect-storm", 42, 4, 1); g != "swarm-reconnect-storm-42" {
		t.Fatalf("sharded reconnect-storm group = %q, want shared fleet-wide", g)
	}
}

// fe builds a FloorEvent for checker tests.
func fe(cseq int64, event, member, holder string) FloorEvent {
	return FloorEvent{Group: "g", CSeq: cseq, GSeq: cseq, Event: event, Member: member, Holder: holder}
}

// TestCheckFloorClean runs the checker over legitimate timelines: grant
// cycles, promotion on release, explicit passes, an approval honoured at
// the next release, a reaped member leaving the queue, a Direct Contact
// window beside a held floor, a grant in a mode where everyone sends,
// and a mode_switch reset — none may be flagged.
func TestCheckFloorClean(t *testing.T) {
	cases := map[string][]FloorEvent{
		"grant cycles": {
			fe(1, "granted", "a", "a"), fe(2, "released", "a", ""),
			fe(3, "granted", "a", "a"), fe(4, "released", "a", ""),
			fe(5, "granted", "a", "a"),
		},
		"promotion on release": {
			fe(1, "granted", "a", "a"), fe(2, "queued", "b", "a"),
			fe(3, "released", "a", "b"), fe(4, "released", "b", ""),
		},
		"explicit pass": {
			fe(1, "granted", "a", "a"), fe(2, "passed", "a", "b"),
			fe(3, "released", "b", ""),
		},
		"approval honoured at the next release": {
			fe(1, "granted", "a", "a"), fe(2, "queued", "x", "a"),
			fe(3, "approved", "x", "a"), fe(4, "released", "a", "x"),
		},
		"reaped member leaves the queue": {
			fe(1, "granted", "a", "a"), fe(2, "queued", "b", "a"),
			fe(3, "queue", "b", "a"),
		},
		"direct contact beside the floor": {
			fe(1, "granted", "a", "a"),
			{Group: "g", CSeq: 2, GSeq: 2, Event: "granted", Member: "b", Holder: "", Mode: "direct-contact"},
			fe(3, "released", "a", ""),
		},
		"a mode where everyone sends": {
			fe(1, "granted", "a", "a"),
			{Group: "g", CSeq: 2, GSeq: 2, Event: "granted", Member: "b", Mode: "free-access"},
			fe(3, "granted", "c", "c"),
		},
		"mode switch resets the holder": {
			fe(1, "granted", "a", "a"), fe(2, "mode_switch", "a", ""),
			fe(3, "granted", "b", "b"),
		},
	}
	for name, evs := range cases {
		check := CheckFloor(evs, nil)
		if len(check.Violations) != 0 {
			t.Errorf("%s: violations %v, want none", name, check.Violations)
		}
		if check.Groups != 1 || check.Gaps != 0 {
			t.Errorf("%s: groups=%d gaps=%d, want 1/0", name, check.Groups, check.Gaps)
		}
	}
}

// TestCheckFloorViolations pins each breach the checker exists for. The
// server runs each transition inside its own append, so the log is in
// transition order and a reorder is itself a finding.
func TestCheckFloorViolations(t *testing.T) {
	cases := map[string]struct {
		evs  []FloorEvent
		want string
	}{
		"repeat grant to the holder": {
			evs:  []FloorEvent{fe(1, "granted", "a", "a"), fe(2, "granted", "a", "a")},
			want: "repeat grant to holder a",
		},
		"grant while someone else holds": {
			evs:  []FloorEvent{fe(1, "granted", "a", "a"), fe(2, "granted", "b", "b")},
			want: "grant to b while a holds",
		},
		"release by a non-holder": {
			evs:  []FloorEvent{fe(1, "released", "b", "")},
			want: "released by non-holder b",
		},
		"pass by a non-holder": {
			evs:  []FloorEvent{fe(1, "granted", "a", "a"), fe(2, "passed", "b", "c")},
			want: "passed by non-holder b",
		},
		"holder disagrees with the replay": {
			evs:  []FloorEvent{fe(1, "granted", "a", "a"), fe(2, "queued", "b", "b")},
			want: `queued event names holder "b", replay has "a"`,
		},
		"ack-before-append reorder": {
			// A release and its re-grant logged in swapped order.
			evs: []FloorEvent{
				fe(1, "granted", "a", "a"), fe(2, "granted", "a", "a"),
				fe(3, "released", "a", "a"),
			},
			want: "cseq 2: repeat grant to holder a",
		},
		"split-brain log position": {
			evs:  []FloorEvent{fe(1, "granted", "a", "a"), fe(1, "granted", "b", "b")},
			want: "split-brain",
		},
	}
	for name, tc := range cases {
		check := CheckFloor(tc.evs, nil)
		found := false
		for _, v := range check.Violations {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v, want one containing %q", name, check.Violations, tc.want)
		}
	}
}

// TestCheckFloorGapsAndAnchoring pins the checker's reach limits: a
// CSeq gap suspends the replay past it (counted, not flagged), and a
// view that never saw the group's genesis is not judged at all.
func TestCheckFloorGapsAndAnchoring(t *testing.T) {
	gapped := CheckFloor([]FloorEvent{
		fe(1, "granted", "a", "a"), fe(2, "released", "a", ""),
		fe(5, "released", "b", ""), // would be a violation, but it is past the gap
	}, nil)
	if gapped.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1", gapped.Gaps)
	}
	if len(gapped.Violations) != 0 {
		t.Fatalf("violations past a gap: %v", gapped.Violations)
	}

	unanchored := CheckFloor([]FloorEvent{
		fe(3, "released", "b", ""), fe(4, "released", "c", ""),
	}, nil)
	if len(unanchored.Violations) != 0 {
		t.Fatalf("violations without a genesis baseline: %v", unanchored.Violations)
	}

	carried := CheckFloor(nil, []string{"conflict: prior finding"})
	if len(carried.Violations) != 1 {
		t.Fatalf("carried conflicts = %v, want preserved", carried.Violations)
	}
}

// TestFloorRecorderDedupAndConflict feeds the tap duplicate and
// conflicting copies of a log position, as cross-member fan-out does.
func TestFloorRecorderDedupAndConflict(t *testing.T) {
	rec := newFloorRecorder()
	msg := func(cseq int64, holder string) protocol.Message {
		m := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{
			Event: "granted", Member: holder, Holder: holder,
		})
		m.Group, m.GSeq, m.Class, m.CSeq = "g", cseq, protocol.ClassFloor, cseq
		return m
	}
	rec.tap(msg(1, "a"))
	rec.tap(msg(1, "a")) // another member's identical copy
	rec.tap(msg(2, "b"))
	rec.tap(protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{Event: "granted"})) // unlogged: ignored
	evs, conflicts := rec.drain()
	if len(evs) != 2 || len(conflicts) != 0 {
		t.Fatalf("events=%d conflicts=%v, want 2 deduplicated and none", len(evs), conflicts)
	}
	rec.tap(msg(2, "c")) // same position, different content
	_, conflicts = rec.drain()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v, want the disagreement recorded", conflicts)
	}
}

// TestShardedLectureMergeMatchesSingle is the acceptance path: a
// 4-shard lecture run (one Run per shard, same seed) merges into a
// report with the same schema as a single-process run, the global op
// count intact, and zero floor-exclusivity violations. Shard reports
// take the JSON disk hop before merging, exactly like dmps-swarm -merge.
func TestShardedLectureMergeMatchesSingle(t *testing.T) {
	opts, _ := labOptions(t)
	singleRes, err := Run(opts, "lecture")
	if err != nil {
		t.Fatal(err)
	}
	singleDoc := Report(singleRes, nil, opts, "single", "linux", "amd64")

	shardOpts, _ := labOptions(t)
	const shards = 4
	var docs []map[string]map[string]any
	shardOps := 0
	for i := 0; i < shards; i++ {
		o := shardOpts
		o.Shards, o.Shard = shards, i
		results, err := Run(o, "lecture")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if results[0].Errors > 0 {
			t.Fatalf("shard %d: %d errors", i, results[0].Errors)
		}
		shardOps += results[0].Ops
		data, err := json.Marshal(Report(results, nil, o, "shard", "linux", "amd64"))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if shardOps != shardOpts.Ops {
		t.Fatalf("shards fired %d ops, want the global %d", shardOps, shardOpts.Ops)
	}
	merged, err := MergeReports(docs)
	if err != nil {
		t.Fatal(err)
	}

	for key := range singleDoc {
		if merged[key] == nil {
			t.Errorf("merged report missing key %s", key)
		}
	}
	for key := range merged {
		if singleDoc[key] == nil {
			t.Errorf("merged report has extra key %s", key)
		}
	}
	for _, key := range []string{"_meta", "Swarm/lecture"} {
		for unit := range singleDoc[key] {
			if _, ok := merged[key][unit]; !ok {
				t.Errorf("%s: merged entry missing %q", key, unit)
			}
		}
		for unit := range merged[key] {
			if _, ok := singleDoc[key][unit]; !ok {
				t.Errorf("%s: merged entry has extra %q", key, unit)
			}
		}
	}
	entry := merged["Swarm/lecture"]
	if got := entry["ops"].(int); got != shardOpts.Ops {
		t.Errorf("merged ops = %d, want %d", got, shardOpts.Ops)
	}
	if got := entry["invariant_violations"].(int); got != 0 {
		t.Errorf("invariant_violations = %d: %v", got, entry["violations"])
	}
	if got := entry["floor_groups"].(int); got != shards {
		t.Errorf("floor_groups = %d, want one group per shard", got)
	}
	if evs := entry["floor_events"].([]FloorEvent); len(evs) == 0 {
		t.Error("merged report carries no floor events")
	}
	if n := entry["grant_samples"].(int64); n <= 0 {
		t.Errorf("merged grant_samples = %d", n)
	}
}

// TestShardedFlashCrowdSharedGroup runs two shards of the flash-crowd
// mix CONCURRENTLY against one cluster — the chairless mixes share one
// group, so both shards' members contend for the same floor and the
// merged invariant check genuinely spans generator processes. The
// in-process Barrier stands in for the CLI's file handshake, and
// Prealloc exercises the pre-dialed admission path.
func TestShardedFlashCrowdSharedGroup(t *testing.T) {
	opts, _ := labOptions(t)
	// Per-shard crowds admit half as fast as a single process's: keep
	// the open-loop rate gentle enough that re-request ops (past the
	// fleet size) find an admitted member even under -race slowdowns.
	opts.Mean = 10 * time.Millisecond
	var gate sync.WaitGroup
	gate.Add(2)
	barrier := func(mix string) error {
		gate.Done()
		gate.Wait()
		return nil
	}
	var wg sync.WaitGroup
	results := make([][]MixResult, 2)
	errs := make([]error, 2)
	docs := make([]map[string]map[string]any, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opts
			o.Shards, o.Shard = 2, i
			o.Prealloc = true
			o.Barrier = barrier
			results[i], errs[i] = Run(o, "flash-crowd")
			if errs[i] == nil {
				docs[i] = Report(results[i], nil, o, "shard", "linux", "amd64")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if results[i][0].Errors > 0 {
			t.Fatalf("shard %d: %d errors", i, results[i][0].Errors)
		}
	}
	merged, err := MergeReports(docs)
	if err != nil {
		t.Fatal(err)
	}
	entry := merged["Swarm/flash-crowd"]
	if got := entry["ops"].(int); got != opts.Ops {
		t.Errorf("merged ops = %d, want the global %d", got, opts.Ops)
	}
	if got := entry["floor_groups"].(int); got != 1 {
		t.Errorf("floor_groups = %d, want the one shared group", got)
	}
	if got := entry["invariant_violations"].(int); got != 0 {
		t.Errorf("invariant_violations = %d: %v", got, entry["violations"])
	}
	if n := entry["grant_samples"].(int64); n <= 0 {
		t.Errorf("merged grant_samples = %d", n)
	}
}

// TestScraper boots a real metrics endpoint, scrapes it on a short
// interval, and checks the timeline: at least the start and stop
// samples, every series padded to the sample count, histogram buckets
// excluded, and a dead endpoint counted as errors rather than fatal.
func TestScraper(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Gauge("dmps_scrape_test_depth", "test gauge").Set(4)
	reg.Counter("dmps_scrape_test_total", "test counter").Add(9)
	reg.Histogram("dmps_scrape_test_latency_seconds", "test latency", []float64{0.1}).Observe(0.05)
	ln, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	s := NewScraper([]string{ln.Addr().String()}, 30*time.Millisecond)
	s.Start()
	time.Sleep(80 * time.Millisecond)
	out := s.Stop()
	if len(out) != 1 {
		t.Fatalf("series sets = %d, want 1", len(out))
	}
	ss := out[0]
	if len(ss.AtMS) < 2 {
		t.Fatalf("samples = %d, want ≥ 2 (start + stop)", len(ss.AtMS))
	}
	if ss.Errors != 0 {
		t.Fatalf("scrape errors = %d", ss.Errors)
	}
	depth := ss.Series["dmps_scrape_test_depth"]
	if len(depth) != len(ss.AtMS) {
		t.Fatalf("gauge series has %d samples, want %d (aligned)", len(depth), len(ss.AtMS))
	}
	for _, v := range depth {
		if v != 4 {
			t.Fatalf("gauge series = %v, want all 4", depth)
		}
	}
	for _, name := range sortedSeriesNames(ss) {
		if strings.Contains(name, "_bucket") {
			t.Fatalf("histogram bucket series %q leaked into the scrape", name)
		}
		if len(ss.Series[name]) != len(ss.AtMS) {
			t.Fatalf("series %q has %d samples, want %d", name, len(ss.Series[name]), len(ss.AtMS))
		}
	}
	// _count and _sum of the histogram are regular series and stay.
	if _, ok := ss.Series["dmps_scrape_test_latency_seconds_count"]; !ok {
		t.Error("histogram _count series missing from scrape")
	}

	dead := NewScraper([]string{"127.0.0.1:1"}, 30*time.Millisecond)
	dead.Start()
	deadOut := dead.Stop()
	if deadOut[0].Errors < 2 {
		t.Fatalf("dead endpoint errors = %d, want every sweep counted", deadOut[0].Errors)
	}
	if len(deadOut[0].Series) != 0 {
		t.Fatalf("dead endpoint produced series: %v", deadOut[0].Series)
	}
}

// TestMergeReportsRejectsBadInput pins the merge error paths.
func TestMergeReportsRejectsBadInput(t *testing.T) {
	if _, err := MergeReports(nil); err == nil {
		t.Fatal("merging nothing must error")
	}
	if _, err := MergeReports([]map[string]map[string]any{
		{"Swarm/lecture": {"ops": 1.0}}, // no histograms
	}); err == nil {
		t.Fatal("merging an entry without histograms must error")
	}
}

// Command bench is the floor-control benchmark: it boots a DMPS
// deployment in-process on loopback TCP, drives it through the client
// library with one of four workloads, checks that what came out is
// correct, and prints every metric by name and unit. BENCHMARK.json at
// the repository root describes it; README.md in this directory defines
// every metric.
//
//	go run -C bench . --workload floor-churn --seed 1 --seconds 20 --trace 0
//	go run -C bench .            # every workload, untraced then traced
//	go run -C bench . -aa        # the whole benchmark twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadDef is one workload: what it boots, how it loads it, and why
// it exists. The why is the one-line reason BENCHMARK.json carries.
type workloadDef struct {
	name  string
	kind  string // deployment
	loop  string // open or closed, with its rate or client count
	op    string // what one operation is, i.e. what op_p50_ms and ops_per_s count
	setup func(*deployment, runConfig, *spanRecorder) (scenario, error)
	// path lists the layer calls on the blocking path of one operation,
	// for the layers_sum / unattributed_share reconciliation.
	path []pathCall
}

// pathCall is calls calls to the layer probe named metric (a time in
// ns or ms per call) on one operation's blocking path.
type pathCall struct {
	metric string
	calls  float64
}

var workloads = []workloadDef{
	{
		name: "lecture", kind: kindCluster,
		loop:  "open: seeded Poisson schedule, 50 lines/s from 1 driver, timed from each line's due time",
		op:    "one chat line applied at one of 16 listeners",
		setup: setupLecture,
		path: []pathCall{
			{"server.hold_ms", 1}, {"protocol.encode_ns", 2}, {"protocol.decode_ns", 2}, {"transport.hop_ns", 4},
			{"whiteboard.append_ns", 1}, {"grouplog.append_ns", 1}, {"wal.append_ns", 1}, {"group.member_ids_ns", 1},
			{"cluster.wrap_forward_ns", 1}, {"cluster.ack_track_ns", 1}, {"whiteboard.apply_ns", 1},
		},
	},
	{
		name: "floor-churn", kind: kindCluster,
		loop:  "closed: 2 drivers, one per group, each waiting for its hand-off before the next request",
		op:    "one floor hand-off: holder sends release → next holder's session sees the event naming it",
		setup: setupChurn,
		path: []pathCall{
			{"protocol.encode_ns", 2}, {"protocol.decode_ns", 2}, {"transport.hop_ns", 4}, {"floor.release_ns", 1},
			{"grouplog.append_ns", 1}, {"wal.append_ns", 2}, {"group.member_ids_ns", 1},
			{"cluster.wrap_forward_ns", 1}, {"cluster.ack_track_ns", 1},
		},
	},
	{
		name: "board-storm-solo", kind: kindSolo,
		loop:  "closed on delivery: 2 annotators, at most 256 operations ahead of the slowest of 16 listeners",
		op:    "one annotation applied at every listener (latency: send → applied at the sampling listener)",
		setup: setupStorm,
		path: []pathCall{
			{"protocol.encode_ns", 2}, {"protocol.decode_ns", 2}, {"transport.hop_ns", 2},
			{"whiteboard.append_ns", 1}, {"grouplog.append_ns", 1}, {"group.member_ids_ns", 1}, {"whiteboard.apply_ns", 1},
		},
	},
	{
		name: "rejoin-storm", kind: kindCluster,
		loop:  "closed: 2 drivers, one per group, each cycling drop → 32-event gap → reconnect",
		op:    "one session resume: Reconnect() call → member converged on the witness's board and floor",
		setup: setupRejoin,
		path: []pathCall{
			{"protocol.encode_ns", 4}, {"protocol.decode_ns", 4}, {"transport.hop_ns", 8}, {"grouplog.replay_ns_per_32", 1},
		},
	},
}

func workloadNamed(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names one metric the benchmark prints, with its unit. The
// end-to-end ones also say which direction is better and the share of
// the baseline by which they may worsen before a change is a regression
// — the same figures BENCHMARK.json fixes, which a test holds equal.
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

// endToEnd are the metrics a user of the system would see; every
// workload reports all three, each for its own operation (workloadDef.op).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = []metricDef{
	{name: "protocol.encode_ns", unit: "ns"}, {name: "protocol.decode_ns", unit: "ns"}, {name: "protocol.allocs_per_frame", unit: "count"}, {name: "protocol.encodes_per_event", unit: "ratio"},
	{name: "transport.send_ns", unit: "ns"}, {name: "transport.sendall_ns_per_msg", unit: "ns"}, {name: "transport.hop_ns", unit: "ns"}, {name: "wire.msgs_per_flush", unit: "ratio"}, {name: "wire.bytes_per_event", unit: "B"},
	{name: "floor.arbitrate_ns", unit: "ns"}, {name: "floor.release_ns", unit: "ns"},
	{name: "group.member_ids_ns", unit: "ns"},
	{name: "grouplog.append_ns", unit: "ns"}, {name: "grouplog.replay_ns_per_32", unit: "ns"}, {name: "grouplog.compactions", unit: "count"}, {name: "grouplog.evicted", unit: "count"},
	{name: "wal.append_ns", unit: "ns"}, {name: "wal.bytes_per_event", unit: "B"},
	{name: "whiteboard.append_ns", unit: "ns"}, {name: "whiteboard.apply_ns", unit: "ns"},
	{name: "server.broadcast_ns_per_member", unit: "ns"}, {name: "server.hold_ms", unit: "ms"}, {name: "server.board_events_per_op", unit: "ratio"},
	{name: "server.queue_events_per_transition", unit: "ratio"}, {name: "server.session_drops", unit: "count"},
	{name: "cluster.ack_track_ns", unit: "ns"}, {name: "cluster.replica_apply_ns", unit: "ns"}, {name: "cluster.wrap_forward_ns", unit: "ns"},
	{name: "router.relayed_per_op", unit: "ratio"}, {name: "cluster.forwards_per_event", unit: "ratio"}, {name: "repl.resends", unit: "count"}, {name: "repl.unacked_max", unit: "count"},
	{name: "client.dial_join_ms", unit: "ms"}, {name: "client.backfilled_events_per_resume", unit: "ratio"}, {name: "client.snapshots_per_resume", unit: "ratio"},
	{name: "traced.op_p50_ms", unit: "ms"}, {name: "traced.ops_per_s", unit: "1/s"},
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

// warmupFor is the discarded lead-in before a measured window.
func warmupFor(window time.Duration) time.Duration {
	if w := window / 5; w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// setup_s is tens of milliseconds of sequential round trips, so one
// reading of it is mostly the host's mood of the moment. An untraced run
// therefore rehearses: it sets up and tears down throwaway deployments
// for rehearsalBudget (at least minRehearsals times) before the one it
// drives and again after the run, some twenty seconds later, and reports
// the median of all of them.
const (
	minRehearsals   = 5
	rehearsalBudget = time.Second
)

// tracedShare is the part of a traced run's seconds spent in its traced
// window; the layer probes use the rest.
const tracedShare = 0.4

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	Workload   string  `json:"workload"`
	Deployment string  `json:"deployment"`
	Loop       string  `json:"loop"`
	Op         string  `json:"op"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Traced     bool    `json:"traced"`
	Env        env     `json:"env"`

	Correct    bool     `json:"correct"`
	Violations []string `json:"violations,omitempty"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	// FailedShare is failed over attempted: errored, refused or timed-out
	// requests, deliveries missing at run end, resumes not converged
	// within the wait limit, and slow-consumer drops.
	FailedShare float64  `json:"failed_share"`
	Failures    []string `json:"failures,omitempty"`

	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	// Tail is reported beside the gated metrics and gated by nothing.
	Tail     *tail            `json:"tail,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// Stages are the servers' own dmps_stage_seconds spans of the traced
	// operations, as p50 microseconds per stage — for reconciliation
	// with the per-layer probes, not a measurement of this benchmark.
	Stages map[string]float64 `json:"stages_p50_us,omitempty"`
	// LayersSum adds the probes' per-call times along one operation's
	// blocking path; UnattributedShare is what is left of the traced
	// run's median latency.
	LayersSumMS       float64 `json:"layers_sum_ms,omitempty"`
	UnattributedShare float64 `json:"unattributed_share,omitempty"`
	TraceFile         string  `json:"trace_file,omitempty"`

	SetupRuns        []float64 `json:"setup_runs_s,omitempty"`
	LeakedGoroutines int       `json:"leaked_goroutines"`
}

// tail holds the ungated figures of an untraced run.
type tail struct {
	// Latency is the whole window's pooled distribution.
	Latency distribution `json:"op_latency_ms"`
	// PartP50MS and PartOpsPerS are the per-part figures the end-to-end
	// metrics summarise, and Noise the parts' rate IQR over its median.
	PartP50MS    []float64 `json:"part_p50_ms"`
	PartOpsPerS  []float64 `json:"part_ops_per_s,omitempty"`
	Noise        float64   `json:"noise"`
	GenLagP99MS  float64   `json:"gen_lag_p99_ms,omitempty"`
	OpsInWindow  int64     `json:"ops_in_window"`
	SetupSpreadS float64   `json:"setup_spread_s,omitempty"`
}

// summary is a run's latencies and rates reduced to the two end-to-end
// figures, with the tail block they came from.
type summary struct {
	tail
	opP50   float64
	opsPerS float64
}

func summarise(out outcome) summary {
	var sum summary
	var pooled []float64
	for _, part := range out.lat {
		pooled = append(pooled, part...)
		sum.PartP50MS = append(sum.PartP50MS, quantileOf(part, 0.5))
	}
	sum.Latency = describe(pooled)
	sum.OpsInWindow = int64(len(pooled))
	sum.PartOpsPerS = out.rates
	if out.delivered > 0 {
		// The open loop: its latency is set by the server's timers, not
		// by how fast the host runs, and its schedule spreads the sends
		// evenly — the pooled median is the steady figure.
		sum.opP50, sum.opsPerS = sum.Latency.P50, out.delivered
		return sum
	}
	// The closed loops run as fast as the host lets them, and the hosts
	// this runs on are shared: a neighbour slows a stretch of seconds by
	// a tenth or more, always in one direction. So their gated figures
	// are taken from the quiet end of the parts — the median latency of
	// the best decile of seconds, the rate of the best decile — where
	// the same code repeats within a few percent. The pooled median and
	// the parts themselves stay in the tail block.
	sum.opP50 = quantileOf(sum.PartP50MS, 0.10)
	sum.opsPerS = quantileOf(out.rates, 0.90)
	_, sum.Noise = medianIQR(out.rates)
	return sum
}

// env records where the numbers were taken.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func readEnv() env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Network: "loopback TCP, no injected delay",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// runWorkload runs one workload once and reports it.
func runWorkload(cfg runConfig) (*report, error) {
	def, ok := workloadNamed(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep := &report{
		Workload: def.name, Deployment: def.kind, Loop: def.loop, Op: def.op,
		Seed: cfg.seed, Traced: cfg.traced, Env: readEnv(),
	}
	tmpRoot := filepath.Join(cfg.outDir, "tmp")
	var rec *spanRecorder
	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		rec = &spanRecorder{}
		length = time.Duration(float64(length) * tracedShare)
	}
	rep.Seconds = length.Seconds()

	baseline := runtime.NumGoroutine()
	// setUp boots a deployment and sets the workload up against it,
	// timing both: setup_s.
	setUp := func() (*deployment, scenario, error) {
		t0 := time.Now()
		d, err := boot(def.kind, tmpRoot)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: boot: %w", def.name, err)
		}
		sc, err := def.setup(d, cfg, rec)
		if err != nil {
			d.close()
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(t0).Seconds())
		return d, sc, nil
	}
	rehearse := func() error {
		if cfg.traced {
			return nil
		}
		start := time.Now()
		for i := 0; i < minRehearsals || time.Since(start) < rehearsalBudget; i++ {
			d, _, err := setUp()
			if err != nil {
				return err
			}
			d.close()
			rep.LeakedGoroutines += leakedGoroutines(baseline)
		}
		return nil
	}
	if err := rehearse(); err != nil {
		return nil, err
	}
	d, sc, err := setUp()
	if err != nil {
		return nil, err
	}

	var t tally
	stop := make(chan struct{})
	pending := d.watchPending(stop)
	before := d.read()
	out := sc.run(warmupFor(length), length, &t)
	after := d.read()
	close(stop)
	maxPending := <-pending
	t.fail(after.drops-before.drops, "%d slow-consumer drops (SessionStats.Drops)", after.drops-before.drops)
	rep.Violations = sc.check()

	sum := summarise(out)
	if cfg.traced {
		layers, err := runProbes(d, sc.probe(), rec, tmpRoot)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		for k, v := range out.layer {
			layers[k] = v
		}
		countLayers(layers, before, after, out, maxPending)
		layers["client.dial_join_ms"] = float64(d.dialJoin) / float64(time.Millisecond) / float64(len(d.clients))
		layers["traced.op_p50_ms"], layers["traced.ops_per_s"] = sum.opP50, sum.opsPerS
		rep.PerLayer = make(map[string]value, len(perLayer))
		for _, m := range perLayer {
			rep.PerLayer[m.name] = value{layers[m.name], m.unit}
		}
		rep.Stages = stageP50s(d)
		for _, pc := range def.path {
			per := layers[pc.metric]
			if !strings.HasSuffix(pc.metric, "_ms") {
				per /= 1e6 // the probes report ns
			}
			rep.LayersSumMS += per * pc.calls
		}
		if sum.opP50 > 0 {
			rep.UnattributedShare = 1 - rep.LayersSumMS/sum.opP50
		}
	}

	d.close()
	rep.LeakedGoroutines += leakedGoroutines(baseline)
	if cfg.traced {
		rep.TraceFile = filepath.Join(cfg.outDir, "trace-"+def.name+".json")
		if err := writeJSON(rep.TraceFile, rec.spans); err != nil {
			return nil, err
		}
	} else {
		if err := rehearse(); err != nil {
			return nil, err
		}
		setup, spread := medianIQR(rep.SetupRuns)
		rep.EndToEnd = map[string]value{
			"op_p50_ms": {sum.opP50, "ms"},
			"ops_per_s": {sum.opsPerS, "1/s"},
			"setup_s":   {setup, "s"},
		}
		sum.GenLagP99MS, sum.SetupSpreadS = out.layer["gen_lag_p99_ms"], spread*setup
		rep.Tail = &sum.tail
	}
	rep.Attempted, rep.Failed, rep.Failures = t.attempted, t.failed, t.notes
	rep.FailedShare = float64(t.failed) / float64(t.attempted)
	rep.Correct = len(rep.Violations) == 0
	return rep, nil
}

// countLayers fills in the per-layer metrics that are counts: what the
// layers counted about themselves over the run, read through their
// public accessors before and after it.
func countLayers(layers map[string]float64, before, after counters, out outcome, maxPending int) {
	delta := func(name string) float64 { return after.series[name] - before.series[name] }
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	events, ops := float64(out.allEvents), float64(out.allOps)
	layers["protocol.encodes_per_event"] = ratio(float64(after.encodes-before.encodes), events)
	msgs := after.wireMsgs - before.wireMsgs
	layers["wire.msgs_per_flush"] = ratio(msgs, delta("dmps_wire_flushes_total"))
	layers["wire.bytes_per_event"] = ratio(delta("dmps_wire_bytes_total:out"), msgs)
	layers["grouplog.compactions"] = delta("dmps_grouplog_compactions_total")
	layers["grouplog.evicted"] = delta("dmps_grouplog_evicted_total")
	layers["wal.bytes_per_event"] = ratio(float64(after.walBytes-before.walBytes), events)
	layers["server.board_events_per_op"] = ratio(float64(after.boardEvents-before.boardEvents), float64(after.boardOps-before.boardOps))
	layers["server.queue_events_per_transition"] = ratio(float64(after.restated-before.restated), float64(after.restateMarked-before.restateMarked))
	layers["server.session_drops"] = float64(after.drops - before.drops)
	layers["router.relayed_per_op"] = ratio(float64(after.relayedDown-before.relayedDown), ops)
	layers["cluster.forwards_per_event"] = ratio(delta("dmps_cluster_forwards_total"), events)
	layers["repl.resends"] = delta("dmps_repl_resends_total")
	layers["repl.unacked_max"] = float64(maxPending)
}

// stageP50s copies the p50 of each stage the deployment's own tracing
// planes recorded for the traced operations, in microseconds.
func stageP50s(d *deployment) map[string]float64 {
	byStage := make(map[string][]float64)
	collect := func(spans []traceSpan) {
		for _, s := range spans {
			byStage[s.stage] = append(byStage[s.stage], s.us)
		}
	}
	for _, n := range d.nodes {
		collect(planeSpans(n.TracePlane()))
	}
	if d.router != nil {
		collect(planeSpans(d.router.TracePlane()))
	}
	out := make(map[string]float64, len(byStage))
	for stage, us := range byStage {
		out[stage] = quantileOf(us, 0.5)
	}
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the one-line result the driver reads: whether the
// outputs were correct, operations attempted and failed, and either the
// end-to-end metrics (untraced) or the per-layer ones (traced).
func contractLine(rep *report) ([]byte, error) {
	metrics := rep.EndToEnd
	if rep.Traced {
		metrics = rep.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

func main() {
	workload := flag.String("workload", "", "run one workload (lecture, floor-churn, board-storm-solo, rejoin-storm) and print the one-line result last; empty runs all four, untraced then traced")
	seed := flag.Int64("seed", 1, "seed of every schedule and payload")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run of -workload instead of the timed one")
	aa := flag.Bool("aa", false, "run the whole benchmark twice back to back and compare the two sets")
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds float64, traced, aa bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %v: at least 1", seconds)
	}
	outDir := "out"
	if _, err := os.Stat("bench"); err == nil {
		outDir = filepath.Join("bench", "out") // started from the repository root
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if workload != "" {
		rep, err := runWorkload(runConfig{workload: workload, seed: seed, seconds: seconds, traced: traced, outDir: outDir})
		if err != nil {
			return err
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
		line, err := contractLine(rep)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !rep.Correct {
			return fmt.Errorf("%s: %d correctness violations", workload, len(rep.Violations))
		}
		return nil
	}
	first, err := runAll(seed, seconds, outDir)
	if err != nil {
		return err
	}
	if !aa {
		return enc.Encode(first)
	}
	second, err := runAll(seed, seconds, outDir)
	if err != nil {
		return err
	}
	cmp := compareSets(first, second)
	if err := enc.Encode(cmp); err != nil {
		return err
	}
	if cmp.Unresolved > 0 {
		return fmt.Errorf("A/A: %d end-to-end metric × workload pairs unresolved", cmp.Unresolved)
	}
	return nil
}

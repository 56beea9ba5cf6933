// Command dmps-benchjson converts `go test -bench` output into the
// repository's BENCH_*.json format and gates the log plane's headline
// invariants: with the event-log append on the broadcast hot path,
// encodes/op must stay at exactly one Encode per broadcast, and an
// annotation storm must coalesce board ops into paced batches
// (logged_board_events/op from BenchmarkBoardStorm). CI pipes the
// bench output through it and fails the step on a regression.
//
// With -baseline it additionally gates the wire-cost trend: every
// benchmark present in BOTH the baseline document and this run must
// not have grown its B/op or allocs/op by more than -max-growth
// (a ratio; 1.30 allows 30% drift for allocator noise). Benchmarks
// new in this run pass freely — the trend gate never blocks adding
// coverage, only regressing what is already measured.
//
// With -ceiling NAME=B_op:allocs_op (repeatable) it pins named
// benchmarks to ABSOLUTE budgets, independent of any baseline: the
// relative trend gate tolerates small drift each run, so a sequence
// of individually-passing regressions could quietly erase the binary
// wire path's allocation win — the ceiling makes that impossible. A
// ceiling on a benchmark missing from the input fails rather than
// passing vacuously.
//
// Usage:
//
//	go test -run='^$' -bench='BenchmarkBroadcast|BenchmarkQueueChurn|BenchmarkBoardStorm|BenchmarkClusterBroadcast' -benchmem . \
//	  | go run ./cmd/dmps-benchjson -out BENCH_ci.json -max-encodes 1.0 -max-board-storm 0.5 \
//	      -baseline BENCH_pr10.json -max-growth 1.30 -note "..."
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result row: name, iterations, then
// whitespace-separated "value unit" metric pairs. The name is kept
// verbatim (including Go's -GOMAXPROCS suffix on multi-core hosts):
// guessing which trailing -N is the procs suffix would corrupt
// sub-benchmark names like members-32 on single-core runners.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// metrics is one benchmark's parsed measurements, keyed by unit with
// "/" flattened to "_" ("ns/op" → "ns_op"), matching BENCH_baseline.json.
type metrics map[string]float64

func parse(r io.Reader) (map[string]metrics, error) {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[3])
		row := make(metrics)
		for i := 0; i+1 < len(rest); i += 2 {
			val, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			unit := strings.ReplaceAll(rest[i+1], "/", "_")
			row[unit] = val
		}
		if len(row) > 0 {
			out[name] = row
		}
	}
	return out, sc.Err()
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	maxEncodes := flag.Float64("max-encodes", 0, "fail if any encodes/op metric exceeds this (0 disables the gate)")
	maxBoardStorm := flag.Float64("max-board-storm", 0, "fail if any logged_board_events/op metric exceeds this (0 disables the gate)")
	baseline := flag.String("baseline", "", "prior BENCH_*.json to gate B/op and allocs/op growth against")
	maxGrowth := flag.Float64("max-growth", 1.30, "fail if B/op or allocs/op grows past baseline×this ratio (with -baseline)")
	note := flag.String("note", "", "free-form note recorded under _meta")
	// Absolute ceilings complement the relative trend gate: the trend
	// gate only catches drift between adjacent runs, so N small
	// regressions can each pass while their product erases a headline
	// win. A ceiling pins the benchmark to an absolute budget forever.
	ceilings := make(map[string][2]float64)
	flag.Func("ceiling", "absolute cap `NAME=B_op:allocs_op` (repeatable); the named benchmark must be present and stay at or under both budgets", func(s string) error {
		name, rest, ok := strings.Cut(s, "=")
		if !ok || name == "" {
			return fmt.Errorf("want NAME=B_op:allocs_op, got %q", s)
		}
		bs, as, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("want NAME=B_op:allocs_op, got %q", s)
		}
		maxB, err := strconv.ParseFloat(bs, 64)
		if err != nil {
			return fmt.Errorf("bad B_op budget in %q: %w", s, err)
		}
		maxA, err := strconv.ParseFloat(as, 64)
		if err != nil {
			return fmt.Errorf("bad allocs_op budget in %q: %w", s, err)
		}
		ceilings[name] = [2]float64{maxB, maxA}
		return nil
	})
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	rows, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(rows) == 0 {
		fatal(fmt.Errorf("no benchmark rows found in input"))
	}

	// The gates: encodes/op proves the encode-once invariant held with
	// the log append on the hot path; logged_board_events/op proves an
	// annotation storm still batches. Requiring at least one matching
	// metric keeps each enabled gate from passing vacuously when the
	// bench selection or output format drifts.
	gate := func(unit string, max float64, what string) {
		gated := 0
		for name, row := range rows {
			val, ok := row[unit]
			if !ok {
				continue
			}
			gated++
			if val > max {
				fatal(fmt.Errorf("%s: %s %.3f exceeds %.3f — %s regressed", name, unit, val, max, what))
			}
		}
		if gated == 0 {
			fatal(fmt.Errorf("no %s metrics in input: the gate would pass vacuously", unit))
		}
	}
	if *maxEncodes > 0 {
		gate("encodes_op", *maxEncodes, "the encode-once invariant")
	}
	if *maxBoardStorm > 0 {
		gate("logged_board_events_op", *maxBoardStorm, "board-op storm coalescing")
	}
	if *baseline != "" {
		if err := gateTrend(*baseline, rows, *maxGrowth); err != nil {
			fatal(err)
		}
	}
	for name, lim := range ceilings {
		row, ok := rows[name]
		if !ok {
			// Multi-core hosts suffix names with -GOMAXPROCS; accept
			// exactly one such row so ceilings written on a single-core
			// runner keep gating elsewhere — but never pass vacuously.
			row, ok = findSuffixed(rows, name)
		}
		if !ok {
			fatal(fmt.Errorf("ceiling %s: benchmark not in input — the gate would pass vacuously", name))
		}
		if b := row["B_op"]; b > lim[0] {
			fatal(fmt.Errorf("%s: B/op %.0f exceeds absolute ceiling %.0f", name, b, lim[0]))
		}
		if a := row["allocs_op"]; a > lim[1] {
			fatal(fmt.Errorf("%s: allocs/op %.0f exceeds absolute ceiling %.0f", name, a, lim[1]))
		}
	}

	doc := make(map[string]any, len(rows)+1)
	doc["_meta"] = map[string]string{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"note":   *note,
	}
	for name, row := range rows {
		doc[name] = row
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, _ = os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// gateTrend compares this run's wire-cost units against a prior
// BENCH_*.json: any benchmark present in both documents must keep
// B/op and allocs/op within baseline×maxGrowth. Comparing only the
// intersection keeps renamed or newly added benchmarks from tripping
// (or silently escaping) the gate, and — like gate above — an empty
// intersection fails rather than passing vacuously.
func gateTrend(path string, rows map[string]metrics, maxGrowth float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	// _meta holds strings; decode per entry and keep only numeric rows.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	base := make(map[string]metrics, len(raw))
	for name, blob := range raw {
		var row metrics
		if json.Unmarshal(blob, &row) == nil {
			base[name] = row
		}
	}
	compared := 0
	for name, row := range rows {
		ref, ok := base[name]
		if !ok {
			continue
		}
		for _, unit := range []string{"B_op", "allocs_op"} {
			was, okWas := ref[unit]
			now, okNow := row[unit]
			if !okWas || !okNow || was <= 0 {
				continue
			}
			compared++
			if now > was*maxGrowth {
				return fmt.Errorf("%s: %s %.0f exceeds baseline %.0f×%.2f — wire cost regressed vs %s",
					name, unit, now, was, maxGrowth, path)
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks shared with baseline %s: the trend gate would pass vacuously", path)
	}
	return nil
}

// findSuffixed looks for exactly one row named name-N (Go's GOMAXPROCS
// suffix). Two or more matches means the name was ambiguous — treat as
// absent and let the caller fail loudly.
func findSuffixed(rows map[string]metrics, name string) (metrics, bool) {
	var found metrics
	matches := 0
	for n, row := range rows {
		rest, ok := strings.CutPrefix(n, name+"-")
		if !ok {
			continue
		}
		if _, err := strconv.Atoi(rest); err != nil {
			continue
		}
		found = row
		matches++
	}
	return found, matches == 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmps-benchjson:", err)
	os.Exit(1)
}

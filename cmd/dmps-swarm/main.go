// Command dmps-swarm runs the open-loop swarm harness against a
// RUNNING deployment (a single cmd/dmps-server, or cmd/dmps-router in
// front of cluster nodes) and reports floor-grant and event-propagation
// latency SLOs as a BENCH_*.json-compatible document.
//
// Usage:
//
//	dmps-swarm -addr 127.0.0.1:4320 [-nodes host1:4321,host2:4321] \
//	    [-mix lecture,reconnect-storm] [-members 16] [-ops 200] \
//	    [-mean 5ms] [-seed 1] [-out report.json] [-note "..."] \
//	    [-chaos-kill 'kill $(cat node$DMPS_CHAOS_NODE.pid)'] \
//	    [-chaos-restart '...']
//
// The -nodes list (the cluster's ring order) attributes per-node
// throughput in the report and locates the chaos mix's victim; omit it
// against a single server.
//
// The chaos flags arm the chaos mix's failure injections with shell
// commands: -chaos-kill runs when the mix fells the group's owner
// (its ring index is $DMPS_CHAOS_NODE), -chaos-restart later in the
// mix to bring the process back — pair it with the router's -recover
// prober so the restarted node's partitions migrate home under a new
// epoch while load still flows. Without the flags the chaos mix runs
// as steady load.
//
// Multi-process runs split ONE seeded schedule across N generator
// processes: start N copies with -shards N -shard 0..N-1 and the same
// seed — each fires its disjoint share of the global op sequence and
// writes a per-shard report. -barrier PATH gates every process's t0 on
// a file handshake (shard i touches PATH.<mix>.ready.<i>; shard 0
// releases PATH.<mix> once all are ready), -prealloc dials each mix's
// fleet before its schedule starts, and -soak DURATION holds the
// offered rate for the duration while -scrape host:port,... samples
// the servers' /metrics on -scrape-interval into the report.
//
// -trace host:port,... (the fleet's -metrics listeners) stamps a
// sampled trace context on every swarm request and, after the mixes,
// pools the fleet's /debug/traces flight recorders into Stage/<stage>
// report entries — the per-stage decomposition of the grant SLO, which
// -merge folds across shards like every other histogram.
//
// Merge mode folds shard reports into one fleet document with the same
// schema, re-running the floor-exclusivity invariant over the pooled
// event timelines:
//
//	dmps-swarm -merge -out BENCH_merged.json shard0.json shard1.json ...
//
// Check mode validates a previously written report instead of running
// load — the CI gate after the swarm smoke:
//
//	dmps-swarm -check report.json [-require-scrapes 2] [-require-stages 5]
//
// It exits non-zero unless every Swarm/<mix> entry present has a
// finite, non-zero p99 grant latency, zero errors, and zero
// floor-exclusivity violations. With -require-scrapes N the
// report must carry at least one Scrape/ entry and every one must hold
// ≥ N samples of at least one dmps_ series — the soak-mode gate. With
// -require-stages N the report must carry ≥ N Stage/ entries with
// spans, whose p50 sum is non-zero and within 1.5× the largest
// measured grant p50 — the tracing-plane gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/swarm"
	"dmps/internal/transport"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:4320", "router or server address to swarm")
	nodes := flag.String("nodes", "", "comma-separated node addresses in ring order (per-node attribution; empty for a single server)")
	mixList := flag.String("mix", "", "comma-separated mixes to run (default: all of "+strings.Join(swarm.Mixes, ","))
	members := flag.Int("members", 8, "listener/contender pool size per mix")
	ops := flag.Int("ops", 50, "scheduled operations per mix")
	mean := flag.Duration("mean", 10*time.Millisecond, "mean inter-arrival gap (open-loop rate knob)")
	settle := flag.Duration("settle", 2*time.Second, "post-schedule settle bound per mix")
	seed := flag.Int64("seed", 1, "arrival-schedule seed")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request client timeout")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	note := flag.String("note", "", "free-form note recorded in _meta")
	check := flag.String("check", "", "validate an existing report file instead of running load")
	chaosKill := flag.String("chaos-kill", "", "shell command felling the chaos group's owner node ($DMPS_CHAOS_NODE = owner index; needs -nodes)")
	chaosRestart := flag.String("chaos-restart", "", "shell command restarting the felled node later in the chaos mix")
	requireScrapes := flag.Int("require-scrapes", 0, "with -check, require ≥ this many /metrics samples per scraped endpoint")
	shards := flag.Int("shards", 1, "generator process count the global schedule splits across")
	shard := flag.Int("shard", 0, "this process's shard index in [0, shards)")
	merge := flag.Bool("merge", false, "merge the shard report files given as arguments into one fleet report")
	prealloc := flag.Bool("prealloc", false, "dial each mix's fleet before its schedule starts")
	barrier := flag.String("barrier", "", "path prefix of the multi-process start-gate files (use with -shards)")
	soak := flag.Duration("soak", 0, "hold the offered rate for this duration per mix instead of a fixed op count")
	scrape := flag.String("scrape", "", "comma-separated /metrics endpoints (host:port) sampled into the report while mixes run")
	scrapeInterval := flag.Duration("scrape-interval", time.Second, "interval between /metrics samples")
	traceEps := flag.String("trace", "", "comma-separated -metrics listeners whose /debug/traces flight recorders feed the report's per-stage breakdown; also stamps a sampled trace context on every swarm request")
	requireStages := flag.Int("require-stages", 0, "with -check, require ≥ this many Stage/ entries with spans, whose p50 sum stays within 1.5× the measured grant p50")
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "dmps-swarm: "+format+"\n", args...)
		return 1
	}

	if *check != "" {
		return checkReport(*check, *requireScrapes, *requireStages, fail)
	}
	if *merge {
		return mergeReports(flag.Args(), *out, fail)
	}

	opts := swarm.Options{
		Dial: func(cfg client.Config) (*client.Client, error) {
			cfg.Network = transport.TCP{}
			cfg.Addr = *addr
			cfg.Timeout = *timeout
			return client.Dial(cfg)
		},
		Seed:     *seed,
		Members:  *members,
		Ops:      *ops,
		Mean:     *mean,
		Settle:   *settle,
		Shards:   *shards,
		Shard:    *shard,
		Prealloc: *prealloc,
		Soak:     *soak,
		Trace:    *traceEps != "",
	}
	if *barrier != "" {
		opts.Barrier = fileBarrier(*barrier, *shards, *shard)
	}
	var pmap *cluster.Map
	if *nodes != "" {
		list := strings.Split(*nodes, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		pmap = cluster.NewMap(list)
		opts.NodeFor = func(group string) string {
			_, owner := pmap.Owner(group)
			return owner
		}
	}
	if *chaosKill != "" {
		if pmap == nil {
			return fail("-chaos-kill needs -nodes to locate the group's owner")
		}
		// The hooks run a shell command with the owner's ring index in
		// the environment, so a smoke script can kill (and later
		// restart) the real node process the chaos group lands on.
		killed := -1 // hooks run one at a time under the mix's injection lock
		hook := func(cmdline string, node int) {
			cmd := exec.Command("/bin/sh", "-c", cmdline)
			cmd.Env = append(os.Environ(), fmt.Sprintf("DMPS_CHAOS_NODE=%d", node))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "dmps-swarm: chaos hook %q: %v\n", cmdline, err)
			}
		}
		ch := &swarm.Chaos{KillOwner: func(group string) {
			killed = pmap.Primary(group)
			hook(*chaosKill, killed)
		}}
		if *chaosRestart != "" {
			ch.Restart = func(group string) { hook(*chaosRestart, killed) }
		}
		opts.Chaos = ch
	}
	var mixes []string
	if *mixList != "" {
		mixes = strings.Split(*mixList, ",")
		for i := range mixes {
			mixes[i] = strings.TrimSpace(mixes[i])
		}
	}

	var scraper *swarm.Scraper
	if *scrape != "" {
		eps := strings.Split(*scrape, ",")
		for i := range eps {
			eps[i] = strings.TrimSpace(eps[i])
		}
		scraper = swarm.NewScraper(eps, *scrapeInterval)
		scraper.Start()
	}
	results, err := swarm.Run(opts, mixes...)
	var scrapes []swarm.ScrapeSeries
	if scraper != nil {
		scrapes = scraper.Stop()
	}
	if err != nil {
		return fail("%v", err)
	}
	doc := swarm.Report(results, scrapes, opts, *note, runtime.GOOS, runtime.GOARCH)
	if *traceEps != "" {
		eps := strings.Split(*traceEps, ",")
		for i := range eps {
			eps[i] = strings.TrimSpace(eps[i])
		}
		stages, err := swarm.CollectStages(eps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmps-swarm: trace collection: %v\n", err)
		}
		swarm.AddStageBreakdown(doc, stages)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail("encode: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail("write %s: %v", *out, err)
	}
	for _, r := range results {
		fmt.Printf("dmps-swarm: %s: %d ops, %d errors, grant p99 %.3fms (%d samples), prop p99 %.3fms (%d samples)\n",
			r.Mix, r.Ops, r.Errors,
			r.Grant.Quantile(0.99)*1e3, r.Grant.Count(),
			r.Prop.Quantile(0.99)*1e3, r.Prop.Count())
	}
	fmt.Printf("dmps-swarm: report written to %s\n", *out)
	return 0
}

// fileBarrier is the multi-process start gate as a file handshake
// under a shared path prefix (a directory all shards can reach). For
// each mix, shard i touches <prefix>.<mix>.ready.<i> and waits for the
// release file <prefix>.<mix>; shard 0 doubles as the coordinator,
// creating the release once every shard's ready file exists — no
// external choreography needed beyond starting N processes.
func fileBarrier(prefix string, shards, shard int) func(mix string) error {
	return func(mix string) error {
		gate := fmt.Sprintf("%s.%s", prefix, mix)
		ready := func(i int) string { return fmt.Sprintf("%s.ready.%d", gate, i) }
		if err := os.WriteFile(ready(shard), nil, 0o644); err != nil {
			return fmt.Errorf("barrier: %w", err)
		}
		deadline := time.Now().Add(2 * time.Minute)
		if shard == 0 {
			for {
				all := true
				for i := 0; i < shards; i++ {
					if _, err := os.Stat(ready(i)); err != nil {
						all = false
						break
					}
				}
				if all {
					break
				}
				if !time.Now().Before(deadline) {
					return fmt.Errorf("barrier: shards not ready by deadline at %s", gate)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err := os.WriteFile(gate, nil, 0o644); err != nil {
				return fmt.Errorf("barrier: %w", err)
			}
			return nil
		}
		for {
			if _, err := os.Stat(gate); err == nil {
				return nil
			}
			if !time.Now().Before(deadline) {
				return fmt.Errorf("barrier: %s never released", gate)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// mergeReports is the -merge mode: fold per-shard report files into
// one fleet document and write it like a run would.
func mergeReports(paths []string, out string, fail func(string, ...any) int) int {
	if len(paths) == 0 {
		return fail("merge: no shard report files given")
	}
	var docs []map[string]map[string]any
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fail("merge: %v", err)
		}
		var doc map[string]map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			return fail("merge: parse %s: %v", path, err)
		}
		docs = append(docs, doc)
	}
	merged, err := swarm.MergeReports(docs)
	if err != nil {
		return fail("%v", err)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return fail("merge: encode: %v", err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fail("merge: write %s: %v", out, err)
	}
	fmt.Printf("dmps-swarm: merged %d shard reports into %s\n", len(paths), out)
	return 0
}

// loadReport parses a swarm report into numeric rows plus the loose
// document. _meta carries strings; keeping only float cells skims
// exactly the Swarm/ material the numeric gates read, while the loose
// form backs the structural ones (scraped series presence).
func loadReport(path string) (map[string]map[string]float64, map[string]map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var loose map[string]map[string]any
	if err := json.Unmarshal(data, &loose); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	doc := map[string]map[string]float64{}
	for name, entry := range loose {
		row := map[string]float64{}
		for unit, v := range entry {
			if f, ok := v.(float64); ok {
				row[unit] = f
			}
		}
		doc[name] = row
	}
	return doc, loose, nil
}

// checkReport is the CI gate: the report must parse, contain at least
// one Swarm/<mix> entry, and every entry must show zero errors, zero
// floor-exclusivity violations, and a finite, non-zero p99 grant
// latency — the smoke-level SLO that load actually flowed, grants
// actually resolved, and the floor stayed exclusive. With
// requireScrapes > 0, the report must carry Scrape/ entries, each
// holding at least that many samples of at least one dmps_ series.
// With requireStages > 0, the report must carry at least that many
// Stage/ entries with spans, and their p50 sum must be non-zero yet no
// more than 1.5× the largest measured grant p50 — the decomposition
// must both exist and actually account for the latency it claims to
// explain (stage time not covered by a grant, like fan-out flushes,
// keeps the sum from being an equality; 1.5× bounds the slack).
func checkReport(path string, requireScrapes, requireStages int, fail func(string, ...any) int) int {
	doc, loose, err := loadReport(path)
	if err != nil {
		return fail("check: %v", err)
	}
	checked, scraped, staged := 0, 0, 0
	stageSum, maxGrantP50 := 0.0, 0.0
	for name, entry := range doc {
		switch {
		case strings.HasPrefix(name, "Stage/"):
			if entry["spans"] > 0 {
				staged++
				stageSum += entry["p50_ms"]
			}
			continue
		case strings.HasPrefix(name, "Scrape/"):
			scraped++
			if requireScrapes > 0 {
				if entry["samples"] < float64(requireScrapes) {
					return fail("check: %s: %v samples, want ≥ %d", name, entry["samples"], requireScrapes)
				}
				series, _ := loose[name]["series"].(map[string]any)
				longest := 0
				for seriesName, v := range series {
					if vals, ok := v.([]any); ok && strings.HasPrefix(seriesName, "dmps_") && len(vals) > longest {
						longest = len(vals)
					}
				}
				if longest < requireScrapes {
					return fail("check: %s: longest dmps_ series has %d samples, want ≥ %d", name, longest, requireScrapes)
				}
			}
			continue
		case !strings.HasPrefix(name, "Swarm/"):
			continue
		}
		checked++
		if p50 := entry["grant_p50_ms"]; p50 > maxGrantP50 {
			maxGrantP50 = p50
		}
		p99 := entry["grant_p99_ms"]
		if !(p99 > 0) || p99 != p99 || p99 > 1e12 {
			return fail("check: %s: grant_p99_ms = %v, want finite and non-zero", name, p99)
		}
		if entry["grant_samples"] <= 0 {
			return fail("check: %s: no grant samples", name)
		}
		if entry["errors"] > 0 {
			return fail("check: %s: %v errors", name, entry["errors"])
		}
		if entry["invariant_violations"] > 0 {
			return fail("check: %s: %v floor-exclusivity violations: %v",
				name, entry["invariant_violations"], loose[name]["violations"])
		}
	}
	if checked == 0 {
		return fail("check: %s has no Swarm/ entries", path)
	}
	if requireScrapes > 0 && scraped == 0 {
		return fail("check: %s has no Scrape/ entries (soak gate)", path)
	}
	if requireStages > 0 {
		if staged < requireStages {
			return fail("check: %s: %d Stage/ entries with spans, want ≥ %d", path, staged, requireStages)
		}
		if !(stageSum > 0) {
			return fail("check: %s: stage p50 sum is zero — the breakdown recorded no latency", path)
		}
		if stageSum > 1.5*maxGrantP50 {
			return fail("check: %s: stage p50 sum %.3fms exceeds 1.5× grant p50 %.3fms — the decomposition overshoots the latency it explains",
				path, stageSum, maxGrantP50)
		}
	}
	fmt.Printf("dmps-swarm: check OK: %d mixes, %d scraped endpoints, %d traced stages in %s\n", checked, scraped, staged, path)
	return 0
}

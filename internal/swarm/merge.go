package swarm

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"dmps/internal/metrics"
)

// MergeReports folds N shard reports into one fleet report with the
// same schema as a single-process run: histograms merge bucket-wise
// (quantiles recomputed over the union — never averaged), ops and
// errors sum, wall is the slowest shard (the shards ran concurrently),
// node throughput adds up, and every shard's recorded floor
// transitions pool into one timeline per group over which the
// floor-exclusivity invariant is re-checked — the step that turns N
// partial views into a fleet-wide verdict. Shard-level violations are
// carried through, so merging can add findings but never lose them.
func MergeReports(docs []map[string]map[string]any) (map[string]map[string]any, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("merge: no reports")
	}

	type mixAgg struct {
		res   MixResult
		seen  map[string]bool // dedup of carried violation strings
		hists [2]*metrics.Histogram
	}
	mixes := map[string]*mixAgg{}
	type nodeAgg struct {
		ops     int
		opsPerS float64
	}
	nodes := map[string]*nodeAgg{}
	stages := map[string]*StageSample{}
	out := map[string]map[string]any{}

	for i, doc := range docs {
		keys := make([]string, 0, len(doc))
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			entry := doc[key]
			switch {
			case key == "_meta":
				if out["_meta"] == nil {
					meta := map[string]any{}
					for k, v := range entry {
						meta[k] = v
					}
					// The merged document speaks for every shard at once.
					meta["shard"] = -1
					out["_meta"] = meta
				}
			case strings.HasPrefix(key, "Swarm/"):
				agg := mixes[key]
				if agg == nil {
					agg = &mixAgg{seen: map[string]bool{}}
					agg.res.Mix = strings.TrimPrefix(key, "Swarm/")
					mixes[key] = agg
				}
				if err := mergeMixEntry(agg.seen, &agg.res, &agg.hists, entry); err != nil {
					return nil, fmt.Errorf("merge: report %d, %s: %w", i, key, err)
				}
			case strings.HasPrefix(key, "SwarmNode/"):
				agg := nodes[key]
				if agg == nil {
					agg = &nodeAgg{}
					nodes[key] = agg
				}
				agg.ops += int(asFloat(entry["ops"]))
				agg.opsPerS += asFloat(entry["ops_per_s"])
			case strings.HasPrefix(key, "Stage/"):
				if err := mergeStageEntry(stages, key, entry); err != nil {
					return nil, fmt.Errorf("merge: report %d, %s: %w", i, key, err)
				}
			default:
				// Scrape/<endpoint> and anything future: shards scrape
				// disjoint endpoint sets by convention; a collision keeps
				// both under a disambiguated key rather than dropping one.
				k := key
				for n := 2; out[k] != nil; n++ {
					k = fmt.Sprintf("%s#%d", key, n)
				}
				out[k] = entry
			}
		}
	}

	for key, agg := range mixes {
		agg.res.Floor = dedupeFloorEvents(agg.res.Floor)
		agg.res.Grant, agg.res.Prop = agg.hists[0], agg.hists[1]
		if agg.res.Grant == nil {
			agg.res.Grant = metrics.NewHistogram(nil)
		}
		if agg.res.Prop == nil {
			agg.res.Prop = metrics.NewHistogram(nil)
		}
		out[key] = mixEntry(agg.res)
	}
	for key, agg := range nodes {
		out[key] = map[string]any{
			"ops":       agg.ops,
			"ops_per_s": round3(agg.opsPerS),
		}
	}
	for key, agg := range stages {
		out[key] = stageEntry(*agg)
	}
	return out, nil
}

// mergeStageEntry folds one shard's Stage/<stage> breakdown into the
// running aggregate: spans sum, histograms merge bucket-wise (quantiles
// recomputed over the union), and origins takes the max — shards pool
// the same fleet's flight recorders, so summing would double-count the
// processes every shard visited.
func mergeStageEntry(stages map[string]*StageSample, key string, entry map[string]any) error {
	var snap metrics.HistogramSnapshot
	if err := reencode(entry["hist"], &snap); err != nil {
		return fmt.Errorf("hist: %w", err)
	}
	agg := stages[key]
	if agg == nil {
		h, err := metrics.FromSnapshot(snap)
		if err != nil {
			return fmt.Errorf("hist: %w", err)
		}
		agg = &StageSample{Stage: strings.TrimPrefix(key, "Stage/"), Hist: h}
		stages[key] = agg
	} else if err := agg.Hist.Merge(snap); err != nil {
		return fmt.Errorf("hist: %w", err)
	}
	agg.Spans += int(asFloat(entry["spans"]))
	if o := int(asFloat(entry["origins"])); o > agg.Origins {
		agg.Origins = o
	}
	return nil
}

// mergeMixEntry folds one shard's Swarm/<mix> entry into the running
// aggregate: counters sum, wall maxes, histograms merge, floor
// transitions and violations pool.
func mergeMixEntry(seen map[string]bool, res *MixResult, hists *[2]*metrics.Histogram, entry map[string]any) error {
	res.Ops += int(asFloat(entry["ops"]))
	res.Errors += int(asFloat(entry["errors"]))
	if wall := time.Duration(asFloat(entry["wall_ms"]) * float64(time.Millisecond)); wall > res.Wall {
		res.Wall = wall
	}
	for i, key := range []string{"grant_hist", "prop_hist"} {
		var snap metrics.HistogramSnapshot
		if err := reencode(entry[key], &snap); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if hists[i] == nil {
			h, err := metrics.FromSnapshot(snap)
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			hists[i] = h
		} else if err := hists[i].Merge(snap); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	var evs []FloorEvent
	if err := reencode(entry["floor_events"], &evs); err != nil {
		return fmt.Errorf("floor_events: %w", err)
	}
	res.Floor = append(res.Floor, evs...)
	var carried []string
	if err := reencode(entry["violations"], &carried); err != nil {
		return fmt.Errorf("violations: %w", err)
	}
	for _, v := range carried {
		if !seen[v] {
			seen[v] = true
			res.FloorConflicts = append(res.FloorConflicts, v)
		}
	}
	return nil
}

// dedupeFloorEvents sorts pooled shard timelines by (group, cseq) and
// drops exact duplicates — shards watching a shared group each recorded
// the same log. Distinct records at the same position both survive:
// they are the split-brain evidence CheckFloor reports.
func dedupeFloorEvents(evs []FloorEvent) []FloorEvent {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Group != evs[j].Group {
			return evs[i].Group < evs[j].Group
		}
		return evs[i].CSeq < evs[j].CSeq
	})
	out := evs[:0]
	seen := map[FloorEvent]bool{}
	for _, ev := range evs {
		if !seen[ev] {
			seen[ev] = true
			out = append(out, ev)
		}
	}
	return out
}

// reencode converts a decoded-JSON (or native) value into a typed one
// via a JSON hop — the merge reads reports both freshly built by Report
// and loaded back from disk.
func reencode(v, into any) error {
	if v == nil {
		return fmt.Errorf("missing value")
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// asFloat reads a report number whatever form it took: float64 from a
// JSON decode, or a native integer from a freshly built document.
func asFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	case json.Number:
		f, _ := n.Float64()
		return f
	}
	return 0
}

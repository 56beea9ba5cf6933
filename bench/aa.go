package main

import (
	"math"

	"dmps/internal/trace"
)

// workloadReport pairs a workload's timed run with its traced run.
type workloadReport struct {
	Untraced *report `json:"untraced"`
	Traced   *report `json:"traced"`
	// TraceOverhead is the traced run's end-to-end figure over the
	// untraced run's, per metric: what the tracing itself costs.
	TraceOverhead map[string]float64 `json:"trace_overhead"`
}

// fullReport is the whole benchmark: every workload, timed then traced.
type fullReport struct {
	Workloads []workloadReport `json:"workloads"`
}

// runAll runs every workload untraced for seconds, then traced. Each
// deployment is closed before the next one boots.
func runAll(seed int64, seconds float64, outDir string) (*fullReport, error) {
	full := &fullReport{}
	for _, def := range workloads {
		cfg := runConfig{workload: def.name, seed: seed, seconds: seconds, outDir: outDir}
		timed, err := runWorkload(cfg)
		if err != nil {
			return nil, err
		}
		cfg.traced = true
		traced, err := runWorkload(cfg)
		if err != nil {
			return nil, err
		}
		wr := workloadReport{Untraced: timed, Traced: traced, TraceOverhead: map[string]float64{}}
		for _, name := range []string{"op_p50_ms", "ops_per_s"} {
			if base := timed.EndToEnd[name].Value; base != 0 {
				wr.TraceOverhead[name] = traced.PerLayer["traced."+name].Value / base
			}
		}
		full.Workloads = append(full.Workloads, wr)
	}
	return full, nil
}

// promotableWithin is how closely a tail metric must repeat across the
// two sets before the A/A report lists it as a candidate for gating.
const promotableWithin = 0.10

// pairing is one end-to-end metric on one workload, measured twice.
type pairing struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is how much worse the second value is than the first, as a
	// share of the first (negative: better).
	Worse   float64 `json:"worse"`
	Bound   float64 `json:"bound"`
	Noise   float64 `json:"noise,omitempty"`
	Verdict string  `json:"verdict"` // agree or unresolved
}

// aaReport is the A/A check: the same code measured twice.
type aaReport struct {
	Pairs      []pairing `json:"pairs"`
	Unresolved int       `json:"unresolved"`
	// Promotable lists tail metrics that repeated within
	// promotableWithin; listing one promotes nothing.
	Promotable []pairing     `json:"promotable_tail_metrics"`
	Sets       []*fullReport `json:"sets"`
}

func worse(m metricDef, first, second float64) float64 {
	if first == 0 {
		return 0
	}
	if m.better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}

// compareSets judges each end-to-end metric × workload: the two sets
// agree when they differ by no more than the metric's bound and the
// run's own noise is no wider than it; otherwise the pair is
// unresolved, never "unchanged".
func compareSets(a, b *fullReport) *aaReport {
	cmp := &aaReport{Sets: []*fullReport{a, b}}
	for i, wa := range a.Workloads {
		ua, ub := wa.Untraced, b.Workloads[i].Untraced
		for _, m := range endToEnd {
			p := pairing{
				Workload: ua.Workload, Metric: m.name, Bound: m.bound,
				First: ua.EndToEnd[m.name].Value, Second: ub.EndToEnd[m.name].Value,
			}
			p.Worse = worse(m, p.First, p.Second)
			if m.name == "ops_per_s" {
				p.Noise = math.Max(ua.Tail.Noise, ub.Tail.Noise)
			}
			p.Verdict = "agree"
			if math.Abs(p.Worse) > m.bound || p.Noise > m.bound {
				p.Verdict = "unresolved"
				cmp.Unresolved++
			}
			cmp.Pairs = append(cmp.Pairs, p)
		}
		tails := []struct {
			name          string
			first, second float64
		}{
			{"op_p99_ms", ua.Tail.Latency.P99, ub.Tail.Latency.P99},
			{"op_tail_ms", ua.Tail.Latency.Tail, ub.Tail.Latency.Tail},
			{"gen_lag_p99_ms", ua.Tail.GenLagP99MS, ub.Tail.GenLagP99MS},
		}
		for _, t := range tails {
			if t.first == 0 || t.second == 0 {
				continue
			}
			p := pairing{Workload: ua.Workload, Metric: t.name, First: t.first, Second: t.second, Bound: promotableWithin}
			p.Worse = (t.second - t.first) / t.first
			if math.Abs(p.Worse) <= promotableWithin {
				p.Verdict = "promotable"
				cmp.Promotable = append(cmp.Promotable, p)
			}
		}
	}
	return cmp
}

// traceSpan is one span of the servers' own tracing plane.
type traceSpan struct {
	stage string
	us    float64
}

// planeSpans flattens a plane's flight recorder into its spans.
func planeSpans(p *trace.Plane) []traceSpan {
	page := p.Snapshot(0)
	var out []traceSpan
	for _, ops := range [][]*trace.OpTrace{page.Recent, page.Slow, page.Pending} {
		for _, op := range ops {
			for _, s := range op.Spans {
				out = append(out, traceSpan{stage: s.Stage, us: float64(s.DurNanos) / 1e3})
			}
		}
	}
	return out
}

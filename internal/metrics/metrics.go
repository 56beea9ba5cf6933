// Package metrics is the fleet observability plane's instrument
// registry: a small, dependency-free set of counters, gauges and
// fixed-bucket histograms exposed in the Prometheus text exposition
// format. The server and the router register their existing counters
// behind scrape-time collectors — SessionStats, BoardStormStats, the
// grouplog occupancy/compaction counters, the cluster pool's per-peer
// forward counters, the partition map's down-set — so a scrape reads
// the numbers the system already computes and nothing is sampled twice.
// The swarm harness (internal/swarm) records its floor-grant and
// event-propagation latencies into the same Histogram type, so swarm
// runs and production operators read one gauge vocabulary.
//
// Instruments are safe for concurrent use: counters and gauges are
// atomics, histograms use per-bucket atomic counters, and a scrape
// (WritePrometheus) never blocks an Observe. Label support is deliberately
// minimal — one optional label pair per sample, rendered inline — which
// covers the per-peer and per-node series the cluster plane needs
// without growing a label-set engine.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored:
// counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the fixed export buckets latency histograms
// use when the caller does not choose their own: 250µs to ~32s in
// powers of two, in seconds. The range covers a sub-millisecond
// in-process grant as well as a reconnect storm riding out a multi-
// second failover, with enough resolution between to read a p999.
var DefaultLatencyBuckets = func() []float64 {
	out := make([]float64, 0, 18)
	for b := 0.00025; b < 40; b *= 2 {
		out = append(out, b)
	}
	return out
}()

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is ≥ the value, plus a cumulative sum and
// count, matching the Prometheus histogram exposition. Buckets are
// fixed at construction so a scrape is a lock-free read of atomics.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	inf    atomic.Int64
	sum    Gauge
	n      atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds (DefaultLatencyBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	sort.Float64s(cp)
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.counts) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the observation total.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// HistogramSnapshot is a histogram's serializable state: the bucket
// bounds and counts, the overflow-bucket count, and the running
// sum/count. It is how a process exports a histogram for another
// process to fold in — the multi-process swarm driver writes one per
// latency histogram into its shard report, and the merge step adds
// shards bucket-wise before computing quantiles. The snapshot is taken
// with atomic per-field reads, not a consistent cut: take it after the
// writers have quiesced (or accept a sample of skew) the way a
// Prometheus scrape does.
type HistogramSnapshot struct {
	// Bounds are the ascending finite bucket upper bounds.
	Bounds []float64 `json:"bounds"`
	// Counts holds one observation count per finite bucket.
	Counts []int64 `json:"counts"`
	// Inf counts observations above the last finite bound.
	Inf int64 `json:"inf,omitempty"`
	// Sum is the observation total.
	Sum float64 `json:"sum"`
	// Count is the number of observations.
	Count int64 `json:"count"`
}

// Snapshot exports the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Inf:    h.inf.Load(),
		Sum:    h.sum.Value(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// FromSnapshot rebuilds a histogram from an exported snapshot, so a
// merge process can fold further shards in with Merge and then read
// quantiles. The snapshot must be internally consistent: one count per
// bound, and a total matching the bucket counts.
func FromSnapshot(s HistogramSnapshot) (*Histogram, error) {
	if len(s.Bounds) == 0 {
		return nil, fmt.Errorf("metrics: snapshot has no buckets")
	}
	if len(s.Counts) != len(s.Bounds) {
		return nil, fmt.Errorf("metrics: snapshot has %d counts for %d bounds", len(s.Counts), len(s.Bounds))
	}
	h := NewHistogram(s.Bounds)
	if err := h.Merge(s); err != nil {
		return nil, err
	}
	return h, nil
}

// Merge folds an exported shard snapshot into h: bucket-wise count
// addition plus the sum and count totals. The snapshot's bounds must
// match h's exactly — merging histograms with different bucket layouts
// would silently misplace every sample, so it is an error instead.
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if len(s.Bounds) != len(h.bounds) {
		return fmt.Errorf("metrics: merge bounds mismatch: %d buckets vs %d", len(s.Bounds), len(h.bounds))
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("metrics: merge bounds mismatch at bucket %d: %g vs %g", i, b, h.bounds[i])
		}
	}
	if len(s.Counts) != len(s.Bounds) {
		return fmt.Errorf("metrics: snapshot has %d counts for %d bounds", len(s.Counts), len(s.Bounds))
	}
	var total int64
	for i, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("metrics: negative count %d in bucket %d", c, i)
		}
		total += c
	}
	if s.Inf < 0 || total+s.Inf != s.Count {
		return fmt.Errorf("metrics: snapshot count %d does not match bucket total %d", s.Count, total+s.Inf)
	}
	for i, c := range s.Counts {
		h.counts[i].Add(c)
	}
	h.inf.Add(s.Inf)
	h.sum.Add(s.Sum)
	h.n.Add(s.Count)
	return nil
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the containing bucket — the same estimate a
// Prometheus histogram_quantile would report from these buckets. It
// returns NaN on an empty histogram; an estimate landing in the
// overflow bucket reports the highest finite bound (a floor, not a
// guess).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 || q <= 0 || q >= 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var seen int64
	lower := 0.0
	for i := range h.counts {
		c := h.counts[i].Load()
		if float64(seen+c) >= rank && c > 0 {
			within := (rank - float64(seen)) / float64(c)
			return lower + (h.bounds[i]-lower)*within
		}
		seen += c
		lower = h.bounds[i]
	}
	return h.bounds[len(h.bounds)-1]
}

// Sample is one exported time series value: an optional single label
// pair qualifying the metric name.
type Sample struct {
	// LabelKey/LabelValue qualify the sample ("peer"/"10.0.0.2:4321");
	// both empty means the bare metric.
	LabelKey   string
	LabelValue string
	// Label2Key/Label2Value add a second label to a sample that has a
	// first ("side"/"router" beside "cause"/"overflow").
	Label2Key   string
	Label2Value string
	// Value is the sample's value.
	Value float64
}

// metricKind is the exposition TYPE line of a registered metric.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered instrument or collector.
type metric struct {
	name    string
	help    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	histVec *HistogramVec
	collect func() []Sample
}

// HistogramVec is a family of histograms sharing one metric name,
// distinguished by a single label — the labelled-histogram shape the
// per-stage latency plane needs (dmps_stage_seconds{stage="dispatch"})
// without growing a general label-set engine. Children share one bucket
// layout so family members stay mergeable; With is get-or-create and
// safe for concurrent use (a read-lock fast path for the steady state,
// where every child already exists).
type HistogramVec struct {
	labelKey string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*Histogram
	order    []string
}

// With returns the child histogram for one label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.children[value]; h != nil {
		return h
	}
	h = NewHistogram(v.bounds)
	v.children[value] = h
	v.order = append(v.order, value)
	return h
}

// Labels returns the family's label values in registration order.
func (v *HistogramVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]string(nil), v.order...)
}

// Registry holds named instruments and renders them in the Prometheus
// text exposition format. Registration is typically done once at
// startup; scrapes run concurrently with updates.
type Registry struct {
	mu       sync.RWMutex
	metrics  []*metric
	names    map[string]bool
	handlers map[string]http.Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register appends a metric, panicking on a duplicate name — metric
// names are a public interface, and two writers racing for one name is
// a programming error worth failing loudly at startup.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", m.name))
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a fixed-bucket histogram
// (DefaultLatencyBuckets when bounds is nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// HistogramVec registers and returns a single-label histogram family:
// every child shares the metric name and bucket layout and is rendered
// with its label pair next to le ({stage="dispatch",le="0.001"}).
func (r *Registry) HistogramVec(name, help, labelKey string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	sort.Float64s(cp)
	v := &HistogramVec{labelKey: labelKey, bounds: cp, children: make(map[string]*Histogram)}
	r.register(&metric{name: name, help: help, kind: kindHistogram, histVec: v})
	return v
}

// Has reports whether a metric name is already registered — the guard
// shared helpers (RegisterRuntime) use to stay idempotent when a test
// registers several components into one registry.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[name]
}

// RegisterHistogram registers a histogram the caller already owns and
// observes into — how a subsystem that records latencies for its own
// purposes (the replication ack table, the swarm harness) exports them
// without double bookkeeping. Panics on a duplicate name, like every
// registration.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
}

// GaugeFunc registers a scrape-time gauge collector: collect runs on
// every scrape and returns the samples to export (one bare sample, or
// several distinguished by a label pair). This is how the server and
// router export the counters they already keep — SessionStats,
// BoardStormStats, pool and partition state — without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, collect func() []Sample) {
	r.register(&metric{name: name, help: help, kind: kindGauge, collect: collect})
}

// CounterFunc is GaugeFunc with counter semantics: the collected
// samples are cumulative totals the underlying system already counts.
func (r *Registry) CounterFunc(name, help string, collect func() []Sample) {
	r.register(&metric{name: name, help: help, kind: kindCounter, collect: collect})
}

// fmtValue renders a float the way the exposition format expects.
func fmtValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Collectors run inline; instrument
// reads are atomic, so a scrape observes each series at one instant
// without pausing writers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.RUnlock()
	var b strings.Builder
	for _, m := range ms {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		switch {
		case m.collect != nil:
			for _, s := range m.collect() {
				switch {
				case s.LabelKey == "":
					fmt.Fprintf(&b, "%s %s\n", m.name, fmtValue(s.Value))
				case s.Label2Key == "":
					fmt.Fprintf(&b, "%s{%s=%q} %s\n", m.name, s.LabelKey, escapeLabel(s.LabelValue), fmtValue(s.Value))
				default:
					fmt.Fprintf(&b, "%s{%s=%q,%s=%q} %s\n", m.name, s.LabelKey, escapeLabel(s.LabelValue),
						s.Label2Key, escapeLabel(s.Label2Value), fmtValue(s.Value))
				}
			}
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, fmtValue(m.gauge.Value()))
		case m.hist != nil:
			writeHistogram(&b, m.name, "", m.hist)
		case m.histVec != nil:
			vec := m.histVec
			vec.mu.RLock()
			labels := append([]string(nil), vec.order...)
			vec.mu.RUnlock()
			sort.Strings(labels)
			for _, lv := range labels {
				pair := fmt.Sprintf("%s=%q,", vec.labelKey, escapeLabel(lv))
				writeHistogram(&b, m.name, pair, vec.With(lv))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram's exposition lines. labelPrefix
// is empty for a bare histogram, or a rendered `key="value",` pair that
// rides ahead of le in every bucket (and alone on _sum/_count) for a
// HistogramVec child.
func writeHistogram(b *strings.Builder, name, labelPrefix string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labelPrefix, fmtValue(bound), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, cum)
	if labelPrefix == "" {
		fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, fmtValue(h.Sum()), name, h.Count())
		return
	}
	pair := strings.TrimSuffix(labelPrefix, ",")
	fmt.Fprintf(b, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, pair, fmtValue(h.Sum()), name, pair, h.Count())
}

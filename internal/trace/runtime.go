// Package trace is the runtime tracing plane: every process (router,
// cluster node) owns one Plane into which its hops record named spans
// for sampled operations — router "relay", server "dispatch"/
// "arbitrate"/"log_append"/"repl_ack"/"queue_wait"/"encode"/"flush" —
// keyed by the wire-propagated trace ID
// (protocol.Message.TraceID). A background sweeper assembles each
// trace's spans into a completed op trace and retains it in two
// bounded flight-recorder rings: a recent ring, and a slow ring whose
// entries (wall time over the slow threshold) a flood of fast ops can
// never evict. The plane surfaces itself as per-stage latency
// histograms (dmps_stage_seconds{stage=...}), a span counter, and the
// /debug/traces JSON endpoint with its ?slow_ms= filter.
//
// The recording path is lock-free — a span claims a slot in a
// fixed-size buffer with one atomic add and one atomic pointer store —
// and is only ever entered for sampled traces: an unsampled op takes
// no clock readings, allocates nothing and touches no shared state,
// the zero-overhead invariant the encode-once benchmarks gate.
package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/metrics"
)

// Stage names recorded by the fleet's hops, in pipeline order. The
// swarm report and the smoke gates key off these exact strings.
const (
	StageRelay     = "relay"      // router: upstream routing of one client frame
	StageDispatch  = "dispatch"   // server: full request dispatch
	StageArbitrate = "arbitrate"  // server: floor-control arbitration
	StageLogAppend = "log_append" // server: event-log append + fan-out
	StageReplAck   = "repl_ack"   // server: replication round trip to last ack
	StageQueueWait = "queue_wait" // server: delivery-queue residency
	StageEncode    = "encode"     // server: wire encode of a logged event
	StageFlush     = "flush"      // server: transport flush of a write batch
)

// Stages lists every stage name, pipeline-ordered.
var Stages = []string{
	StageRelay, StageDispatch, StageArbitrate, StageLogAppend,
	StageReplAck, StageQueueWait, StageEncode, StageFlush,
}

// StageBuckets are the dmps_stage_seconds bucket bounds: 1µs to ~8s in
// powers of two. Stages run well under the 250µs floor of the default
// latency buckets (an encode is microseconds), so the stage plane needs
// its own finer layout; every process uses the same one so per-stage
// histograms merge across the fleet.
var StageBuckets = func() []float64 {
	out := make([]float64, 0, 24)
	for b := 1e-6; b < 10; b *= 2 {
		out = append(out, b)
	}
	return out
}()

// Span is one named, timed stage of a traced operation, recorded by
// the process that executed it.
type Span struct {
	// Trace is the operation's wire-propagated trace ID; Parent is the
	// parent span context the triggering frame carried (0 at the root).
	Trace  uint64 `json:"trace"`
	Parent uint64 `json:"parent,omitempty"`
	// Stage names the span (one of Stages).
	Stage string `json:"stage"`
	// StartNanos is the span's start on the local wall clock; DurNanos
	// its duration.
	StartNanos int64 `json:"start_unix_nanos"`
	DurNanos   int64 `json:"dur_ns"`
}

// OpTrace is one completed operation's assembled spans on one process —
// a flight-recorder entry. Origin names the process (the node or router
// identity its Plane was built with); a cross-process consumer joins
// entries from several /debug/traces endpoints on Trace.
type OpTrace struct {
	Trace  uint64 `json:"trace"`
	Origin string `json:"origin,omitempty"`
	// StartNanos is the earliest span start; WallMS the spread from it
	// to the latest span end — the op's wall time as seen by this
	// process.
	StartNanos int64   `json:"start_unix_nanos"`
	WallMS     float64 `json:"wall_ms"`
	Spans      []Span  `json:"spans"`
}

// Plane buffer and ring sizes.
const (
	spanSlots  = 8192 // lock-free span buffer (power of two)
	recentRing = 256  // completed-trace flight recorder
	slowRing   = 128  // slow-op traces, evicted only by slower/newer slow ops
)

// DefaultSlowThreshold is the wall time past which a completed trace is
// retained in the slow ring regardless of recent-ring churn.
const DefaultSlowThreshold = 50 * time.Millisecond

// sweepEvery is the sweeper cadence; a trace idle for one full sweep is
// considered complete and moves to the flight recorder.
const sweepEvery = 250 * time.Millisecond

// Plane is one process's runtime tracing plane. Create it with
// NewPlane, record spans with Span, and surface it with
// RegisterMetrics/Handler. The zero Plane is not usable.
type Plane struct {
	origin string
	stages []string
	slow   time.Duration

	slots []atomic.Pointer[Span]
	pos   atomic.Uint64

	spansTotal  atomic.Int64
	tracesTotal atomic.Int64
	stageHists  atomic.Pointer[metrics.HistogramVec]

	mu      sync.Mutex
	pending map[uint64]*pendingTrace
	recent  []*OpTrace // newest last
	slowOps []*OpTrace // newest last

	stop chan struct{}
	done chan struct{}
}

// pendingTrace accumulates a live trace's spans between sweeps.
type pendingTrace struct {
	spans []Span
	// quiet counts consecutive sweeps that added no span; the trace
	// finalizes after one full quiet sweep.
	quiet int
}

// NewPlane builds a running plane. origin names this process in every
// exported trace (a node address, "router"); stages lists the stage
// series this process records, pre-created at registration so they
// exist from the first scrape (all of Stages when nil); slowThreshold
// selects which completed traces the slow ring retains
// (DefaultSlowThreshold when 0). Close stops the sweeper.
func NewPlane(origin string, stages []string, slowThreshold time.Duration) *Plane {
	if slowThreshold <= 0 {
		slowThreshold = DefaultSlowThreshold
	}
	if len(stages) == 0 {
		stages = Stages
	}
	p := &Plane{
		origin:  origin,
		stages:  stages,
		slow:    slowThreshold,
		slots:   make([]atomic.Pointer[Span], spanSlots),
		pending: map[uint64]*pendingTrace{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go p.sweeper()
	return p
}

// Close stops the plane's sweeper. Spans recorded after Close still
// land in the buffer but are only assembled by explicit Handler calls.
func (p *Plane) Close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
		<-p.done
	}
}

// Span records one completed stage of a sampled trace: started at
// start, ended now. The caller guards the clock reads — take start
// only when the operation's message is sampled, so unsampled ops pay
// nothing.
func (p *Plane) Span(traceID, parent uint64, stage string, start time.Time) {
	p.SpanDur(traceID, parent, stage, start, time.Since(start))
}

// SpanDur records a stage with an explicit duration — for spans whose
// endpoints were captured apart (queue residency, replication RTT).
func (p *Plane) SpanDur(traceID, parent uint64, stage string, start time.Time, d time.Duration) {
	if traceID == 0 || d < 0 {
		return
	}
	s := &Span{
		Trace:      traceID,
		Parent:     parent,
		Stage:      stage,
		StartNanos: start.UnixNano(),
		DurNanos:   int64(d),
	}
	i := p.pos.Add(1) - 1
	p.slots[i&(spanSlots-1)].Store(s)
	p.spansTotal.Add(1)
	if vec := p.stageHists.Load(); vec != nil {
		vec.With(stage).Observe(d.Seconds())
	}
}

// SpansRecorded reports the number of spans recorded since start — the
// dmps_trace_spans_total reading.
func (p *Plane) SpansRecorded() int64 { return p.spansTotal.Load() }

// sweeper periodically drains the span buffer and finalizes quiet
// traces into the flight recorder.
func (p *Plane) sweeper() {
	defer close(p.done)
	t := time.NewTicker(sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			p.Sweep()
			return
		case <-t.C:
			p.Sweep()
		}
	}
}

// Sweep drains the span buffer into the pending table and finalizes
// every trace that has been quiet for a full sweep. The sweeper calls
// it on a timer; Handler calls it inline so a scrape observes the
// freshest assembly.
func (p *Plane) Sweep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	touched := map[uint64]bool{}
	for i := range p.slots {
		s := p.slots[i].Swap(nil)
		if s == nil {
			continue
		}
		pt := p.pending[s.Trace]
		if pt == nil {
			pt = &pendingTrace{}
			p.pending[s.Trace] = pt
		}
		pt.spans = append(pt.spans, *s)
		touched[s.Trace] = true
	}
	for id, pt := range p.pending {
		if touched[id] {
			pt.quiet = 0
			continue
		}
		pt.quiet++
		if pt.quiet >= 1 {
			p.finalize(id, pt)
			delete(p.pending, id)
		}
	}
}

// finalize assembles a pending trace into an OpTrace and retains it.
// Caller holds p.mu.
func (p *Plane) finalize(id uint64, pt *pendingTrace) {
	op := assemble(id, p.origin, pt.spans)
	p.tracesTotal.Add(1)
	p.recent = append(p.recent, op)
	if len(p.recent) > recentRing {
		p.recent = p.recent[len(p.recent)-recentRing:]
	}
	if time.Duration(op.WallMS*float64(time.Millisecond)) >= p.slow {
		p.slowOps = append(p.slowOps, op)
		if len(p.slowOps) > slowRing {
			p.slowOps = p.slowOps[len(p.slowOps)-slowRing:]
		}
	}
}

// assemble orders a trace's spans by start time and computes its wall
// spread.
func assemble(id uint64, origin string, spans []Span) *OpTrace {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNanos < spans[j].StartNanos })
	op := &OpTrace{Trace: id, Origin: origin, Spans: spans}
	if len(spans) > 0 {
		op.StartNanos = spans[0].StartNanos
		var end int64
		for _, s := range spans {
			if e := s.StartNanos + s.DurNanos; e > end {
				end = e
			}
		}
		op.WallMS = float64(end-op.StartNanos) / float64(time.Millisecond)
	}
	return op
}

// TracesPage is the /debug/traces response document.
type TracesPage struct {
	// Origin names the serving process; SlowMS echoes the applied
	// ?slow_ms= filter (0 = none).
	Origin string  `json:"origin"`
	SlowMS float64 `json:"slow_ms,omitempty"`
	// Spans and Traces count recording activity since process start
	// (traces counts completed assemblies).
	Spans  int64 `json:"spans_total"`
	Traces int64 `json:"traces_total"`
	// Recent is the completed-trace flight recorder (newest last) and
	// Slow the always-retained slow-op ring; both respect the filter.
	// Pending lists still-live traces assembled as of this request.
	Recent  []*OpTrace `json:"recent"`
	Slow    []*OpTrace `json:"slow"`
	Pending []*OpTrace `json:"pending,omitempty"`
}

// Snapshot returns the flight recorder's current page, filtered to
// traces with wall time ≥ slowMS when slowMS > 0.
func (p *Plane) Snapshot(slowMS float64) TracesPage {
	p.Sweep()
	p.mu.Lock()
	defer p.mu.Unlock()
	page := TracesPage{
		Origin: p.origin,
		SlowMS: slowMS,
		Spans:  p.spansTotal.Load(),
		Traces: p.tracesTotal.Load(),
		Recent: filterOps(p.recent, slowMS),
		Slow:   filterOps(p.slowOps, slowMS),
	}
	for id, pt := range p.pending {
		spans := append([]Span(nil), pt.spans...)
		op := assemble(id, p.origin, spans)
		if slowMS <= 0 || op.WallMS >= slowMS {
			page.Pending = append(page.Pending, op)
		}
	}
	sort.Slice(page.Pending, func(i, j int) bool {
		return page.Pending[i].StartNanos < page.Pending[j].StartNanos
	})
	return page
}

// filterOps copies ops with wall time ≥ slowMS (all of them when
// slowMS ≤ 0). The copy keeps ring mutation out of marshalled pages.
func filterOps(ops []*OpTrace, slowMS float64) []*OpTrace {
	out := make([]*OpTrace, 0, len(ops))
	for _, op := range ops {
		if slowMS <= 0 || op.WallMS >= slowMS {
			out = append(out, op)
		}
	}
	return out
}

// Handler serves the flight recorder as JSON — the /debug/traces
// endpoint. ?slow_ms=N filters every section to traces at least that
// slow.
func (p *Plane) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var slowMS float64
		if s := req.URL.Query().Get("slow_ms"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v < 0 {
				http.Error(w, "bad slow_ms", http.StatusBadRequest)
				return
			}
			slowMS = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Snapshot(slowMS))
	})
}

// RegisterMetrics exports the plane into a registry: the per-stage
// latency family dmps_stage_seconds{stage=...}, the span counter, and
// the /debug/traces endpoint on the registry's listener. Idempotent
// against a registry that already carries a tracing plane (one process,
// one plane).
func (p *Plane) RegisterMetrics(reg *metrics.Registry) {
	if !reg.Has("dmps_stage_seconds") {
		vec := reg.HistogramVec("dmps_stage_seconds",
			"Per-stage latency of traced operations, by pipeline stage.",
			"stage", StageBuckets)
		// Pre-create this process's stages so the series exist from the
		// first scrape, before any sampled op arrives.
		for _, s := range p.stages {
			vec.With(s)
		}
		p.stageHists.Store(vec)
		reg.CounterFunc("dmps_trace_spans_total",
			"Named spans recorded by the tracing plane.",
			func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(p.spansTotal.Load())}}
			})
		reg.CounterFunc("dmps_traces_total",
			"Completed op traces assembled into the flight recorder.",
			func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(p.tracesTotal.Load())}}
			})
	}
	reg.Handle("/debug/traces", p.Handler())
}

// ServerStages are the stage series a group-partition node records.
var ServerStages = []string{
	StageDispatch, StageArbitrate, StageLogAppend,
	StageReplAck, StageQueueWait, StageEncode, StageFlush,
}

// RouterStages are the stage series the routing tier records.
var RouterStages = []string{StageRelay}

package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dmps_test_total", "test counter")
	g := r.Gauge("dmps_test_depth", "test gauge")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dmps_test_total counter",
		"dmps_test_total 5",
		"# TYPE dmps_test_depth gauge",
		"dmps_test_depth 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram should report NaN quantile")
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in the (0.001, 0.01] bucket
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0.001 || p50 > 0.01 {
		t.Fatalf("p50 = %g, want within (0.001, 0.01]", p50)
	}
	h.Observe(100) // overflow bucket
	if got := h.Count(); got != 101 {
		t.Fatalf("count = %d, want 101", got)
	}
	// A quantile landing in +Inf floors at the top finite bound.
	if got := h.Quantile(0.9999); got != 1 {
		t.Fatalf("overflow quantile = %g, want 1", got)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dmps_test_latency_seconds", "test latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dmps_test_latency_seconds histogram",
		`dmps_test_latency_seconds_bucket{le="0.01"} 1`,
		`dmps_test_latency_seconds_bucket{le="0.1"} 2`,
		`dmps_test_latency_seconds_bucket{le="+Inf"} 3`,
		"dmps_test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorSamples(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("dmps_test_peers", "per-peer sends", func() []Sample {
		return []Sample{
			{LabelKey: "peer", LabelValue: "a:1", Value: 7},
			{LabelKey: "peer", LabelValue: "b:2", Value: 9},
		}
	})
	r.CounterFunc("dmps_test_flat", "bare collected total", func() []Sample {
		return []Sample{{Value: 42}}
	})
	r.CounterFunc("dmps_test_resets", "two labels", func() []Sample {
		return []Sample{{LabelKey: "side", LabelValue: "node", Label2Key: "cause", Label2Value: "overflow", Value: 3}}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dmps_test_peers{peer="a:1"} 7`,
		`dmps_test_peers{peer="b:2"} 9`,
		"dmps_test_flat 42",
		`dmps_test_resets{side="node",cause="overflow"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dmps_dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.Counter("dmps_dup", "second")
}

// TestConcurrentScrape hammers every instrument kind from writer
// goroutines while scraping continuously — the -race witness that a
// scrape never tears or blocks an update.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dmps_race_total", "race counter")
	g := r.Gauge("dmps_race_depth", "race gauge")
	h := r.Histogram("dmps_race_latency_seconds", "race latency", nil)
	var depth Gauge
	r.GaugeFunc("dmps_race_collected", "race collector", func() []Sample {
		return []Sample{{LabelKey: "node", LabelValue: "n0", Value: depth.Value()}}
	})
	const writers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				depth.Set(float64(seed*iters + i))
				h.Observe(float64(i%37) / 1000)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Value(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	if got := h.Count(); got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
}

// TestServeEndpoint boots the HTTP endpoint on a loopback port and
// scrapes it the way cmd/dmps-smoke does.
func TestServeEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("dmps_http_total", "served counter").Add(3)
	ln, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "dmps_http_total 3") {
		t.Fatalf("scrape missing served counter:\n%s", body)
	}
}

// TestQuantileEdgeCases pins the estimator's boundary behaviour: an
// empty histogram and out-of-range q report NaN, a single-bucket
// population interpolates inside that bucket, and samples past the last
// finite bound report the highest bound as a floor rather than a guess.
func TestQuantileEdgeCases(t *testing.T) {
	empty := NewHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0.001, 0.5, 0.999} {
		if v := empty.Quantile(q); !math.IsNaN(v) {
			t.Fatalf("empty Quantile(%v) = %v, want NaN", q, v)
		}
	}

	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(1.5) // all ten samples land in the (1, 2] bucket
	}
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		if v := h.Quantile(q); !math.IsNaN(v) {
			t.Fatalf("Quantile(%v) = %v, want NaN at/out of the 0/1 boundaries", q, v)
		}
	}
	if v := h.Quantile(0.5); !(v > 1 && v <= 2) {
		t.Fatalf("one-bucket Quantile(0.5) = %v, want within (1, 2]", v)
	}

	over := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		over.Observe(100) // overflow: above the last finite bound
	}
	if v := over.Quantile(0.99); v != 4 {
		t.Fatalf("overflow Quantile(0.99) = %v, want last bound 4", v)
	}
}

// TestSnapshotRoundTrip exports a histogram, rebuilds it, and checks
// the rebuilt copy reports identical counts, sum and quantiles — the
// shard-report serialization path, including the JSON hop.
func TestSnapshotRoundTrip(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 500; i++ {
		h.Observe(0.0001 * float64(i+1))
	}
	h.Observe(100) // one overflow sample
	data, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s HistogramSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() {
		t.Fatalf("count %d != %d", back.Count(), h.Count())
	}
	if math.Abs(back.Sum()-h.Sum()) > 1e-9 {
		t.Fatalf("sum %v != %v", back.Sum(), h.Sum())
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if a, b := back.Quantile(q), h.Quantile(q); a != b {
			t.Fatalf("Quantile(%v): %v != %v", q, a, b)
		}
	}
}

// TestMergeShardsEquivalentToSingle splits one sample population across
// four shard histograms, merges their snapshots, and checks the result
// is indistinguishable from a single histogram fed every sample — the
// property the multi-process SLO merge rests on.
func TestMergeShardsEquivalentToSingle(t *testing.T) {
	single := NewHistogram(nil)
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = NewHistogram(nil)
	}
	for i := 0; i < 1000; i++ {
		v := 0.0002 * float64(i%317+1)
		single.Observe(v)
		shards[i%4].Observe(v)
	}
	merged := NewHistogram(nil)
	for _, sh := range shards {
		if err := merged.Merge(sh.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != single.Count() {
		t.Fatalf("count %d != %d", merged.Count(), single.Count())
	}
	if math.Abs(merged.Sum()-single.Sum()) > 1e-9 {
		t.Fatalf("sum %v != %v", merged.Sum(), single.Sum())
	}
	ms, ss := merged.Snapshot(), single.Snapshot()
	for i := range ms.Counts {
		if ms.Counts[i] != ss.Counts[i] {
			t.Fatalf("bucket %d: %d != %d", i, ms.Counts[i], ss.Counts[i])
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a, b := merged.Quantile(q), single.Quantile(q); a != b {
			t.Fatalf("Quantile(%v): merged %v != single %v", q, a, b)
		}
	}
}

// TestMergeRejectsMismatch pins the merge error paths: different bucket
// layouts, truncated counts, and a count that disagrees with the bucket
// total must all refuse rather than silently misplace samples.
func TestMergeRejectsMismatch(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if err := h.Merge(NewHistogram([]float64{1, 2, 8}).Snapshot()); err == nil {
		t.Fatal("merge across different bounds must error")
	}
	if err := h.Merge(NewHistogram([]float64{1, 2}).Snapshot()); err == nil {
		t.Fatal("merge across different bucket counts must error")
	}
	bad := NewHistogram([]float64{1, 2, 4}).Snapshot()
	bad.Count = 7 // no samples were observed: the total lies
	if err := h.Merge(bad); err == nil {
		t.Fatal("merge of an inconsistent snapshot must error")
	}
	if _, err := FromSnapshot(HistogramSnapshot{}); err == nil {
		t.Fatal("FromSnapshot of an empty snapshot must error")
	}
	if h.Count() != 0 {
		t.Fatalf("rejected merges must not mutate: count = %d", h.Count())
	}
}

package experiments

import (
	"math"
	"testing"
	"time"
)

func TestLatencyStatsPercentiles(t *testing.T) {
	var s LatencyStats
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{0: time.Millisecond, 50: 50 * time.Millisecond, 95: 95 * time.Millisecond, 100: 100 * time.Millisecond} {
		if got := s.Percentile(p); got != want {
			t.Errorf("p%.0f = %v, want %v", p, got, want)
		}
	}
	if s.N() != 100 {
		t.Errorf("N = %d", s.N())
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	var s LatencyStats
	if s.Percentile(50) != 0 || s.N() != 0 {
		t.Error("empty stats should be all zero")
	}
}

func TestLatencyStatsSingle(t *testing.T) {
	var s LatencyStats
	s.Add(7 * time.Millisecond)
	for _, p := range []float64{1, 50, 99, 100} {
		if got := s.Percentile(p); got != 7*time.Millisecond {
			t.Errorf("p%.0f = %v", p, got)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("equal shares: %v", got)
	}
	// One user hogging everything among n: index = 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("hog: %v", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all zero: %v", got)
	}
	// Scale invariance.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("scale variance: %v vs %v", a, b)
	}
}

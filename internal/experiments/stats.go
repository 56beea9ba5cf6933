package experiments

import (
	"math"
	"sort"
	"sync"
	"time"
)

// LatencyStats is an online collection of duration samples.
// The zero value is ready to use; it is safe for concurrent use.
type LatencyStats struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Add records one sample.
func (s *LatencyStats) Add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, d)
}

// N reports the sample count.
func (s *LatencyStats) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Percentile returns the p-th percentile (0 < p ≤ 100) by
// nearest-rank on the sorted samples; zero when empty.
func (s *LatencyStats) Percentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(s.samples))
	copy(sorted, s.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// JainIndex computes the Jain fairness index of the shares:
// (Σx)² / (n·Σx²). It is 1.0 for perfectly equal shares and approaches
// 1/n under total unfairness. Returns 0 for empty or all-zero input.
func JainIndex(shares []float64) float64 {
	if len(shares) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range shares {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(shares)) * sumSq)
}

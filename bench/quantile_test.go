package main

import (
	"math"
	"testing"
)

func TestSupportedTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		label  string
		beyond int
	}{
		{15, "p50", 7}, // too few for anything; the median is returned with its count
		{20, "p50", 10},
		{99, "p50", 49},
		{100, "p90", 10},
		{999, "p90", 99},
		{1000, "p99", 10},
		{9999, "p99", 99},
		{10000, "p999", 10},
		{100000, "p9999", 10},
	} {
		q, label, beyond := supportedTail(tc.n)
		if label != tc.label || beyond != tc.beyond {
			t.Errorf("supportedTail(%d) = %s with %d beyond, want %s with %d", tc.n, label, beyond, tc.label, tc.beyond)
		}
		if got := beyondOf(tc.n, q); got != beyond {
			t.Errorf("supportedTail(%d) states %d beyond, %d are", tc.n, beyond, got)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0: 1, 0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
}

func TestWindowMedianIgnoresARareStall(t *testing.T) {
	// Ten windows of 1000 samples at 100us; one window holds a stall that
	// puts 5% of its samples at 50ms. The pooled p99 is unmoved only by
	// luck of where the stall falls; the window median never sees it.
	var samples []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < 1000; i++ {
			v := 100.0
			if w == 3 && i < 50 {
				v = 50000
			}
			samples = append(samples, v)
		}
	}
	if got := windowMedian(samples, 0.99, 1000); got != 100 {
		t.Errorf("windowMedian = %v, want 100", got)
	}
	if got := quantile(sortedCopy(samples[3000:4000]), 0.99); got != 50000 {
		t.Errorf("the stalled window's own p99 = %v, want 50000", got)
	}
	// Too few samples for three windows: the pooled quantile.
	if got := windowMedian(samples[:2500], 0.5, 1000); got != 100 {
		t.Errorf("short windowMedian = %v, want 100", got)
	}
}

// Failures that fall in fewer than half the windows leave the median
// window's p99 alone; once they are 1% of the phase the metric must be the
// failure charge all the same.
func TestWindowP99DoesNotHideFailuresThatReachThePercentile(t *testing.T) {
	samples := make([]float64, 10*latencyWindow)
	for i := range samples {
		samples[i] = 100
	}
	fail := func(window, n int) {
		for i := 0; i < n; i++ {
			samples[window*latencyWindow+i] = failedLatencyUS
		}
	}
	fail(0, 50) // 0.5% of the phase
	if got := windowP99(samples); got != 100 {
		t.Errorf("0.5%% failed: windowP99 = %v, want 100", got)
	}
	fail(1, 50)
	fail(2, 50) // 1.5% of the phase, in three windows of ten
	if got := windowMedian(samples, 0.99, latencyWindow); got != 100 {
		t.Fatalf("windowMedian alone = %v; the case is meant to be one it cannot see", got)
	}
	if got := windowP99(samples); got != failedLatencyUS {
		t.Errorf("1.5%% failed: windowP99 = %v, want the failure charge", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(3, 1) = %v, %v, want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

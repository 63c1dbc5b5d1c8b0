package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending samples by
// nearest rank; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median averages the two middle values of an even-sized sample, as
// Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const tailMinBeyond = 10

// tails are the percentiles a tail is picked from, lowest first.
var tails = []struct {
	q     float64
	label string
}{{0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}, {0.999, "p999"}, {0.9999, "p9999"}}

// supportedTail picks the highest percentile that has at least
// tailMinBeyond of the n samples beyond it, and says how many that is. With
// fewer than 2×tailMinBeyond samples not even the median qualifies; it is
// returned anyway, with its count, so the caller can say so.
func supportedTail(n int) (q float64, label string, beyond int) {
	pick := tails[0]
	for _, t := range tails[1:] {
		if beyondOf(n, t.q) >= tailMinBeyond {
			pick = t
		}
	}
	return pick.q, pick.label, beyondOf(n, pick.q)
}

// beyondOf counts the samples strictly above the nearest-rank q-quantile.
func beyondOf(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// dist summarises one latency population.
type dist struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50_us"`
	P99       float64 `json:"p99_us"`
	Tail      float64 `json:"tail_us"`     // the highest supported percentile
	TailLabel string  `json:"tail"`        // which one that is
	Beyond    int     `json:"tail_beyond"` // samples beyond it
}

func summarise(us []float64) dist {
	sort.Float64s(us)
	q, label, beyond := supportedTail(len(us))
	return dist{
		N: len(us), P50: quantile(us, 0.5), P99: quantile(us, 0.99),
		Tail: quantile(us, q), TailLabel: label, Beyond: beyond,
	}
}

func (d dist) String() string {
	return fmt.Sprintf("n=%d p50=%.1fus p99=%.1fus %s=%.1fus (%d beyond)", d.N, d.P50, d.P99, d.TailLabel, d.Tail, d.Beyond)
}

// windowMedian cuts samples, taken in arrival order, into windows of win
// consecutive samples, takes the q-quantile of each full window and returns
// the median of those: the q-quantile of a typical window, not of the
// population. A stall that touches fewer than half the windows — a
// collection's mark phase, a noisy neighbour, but also a rare pause of the
// program's own — cannot move it, which is why it repeats from run to run
// where the pooled tail does not, and why the pooled tail is reported too.
func windowMedian(samples []float64, q float64, win int) float64 {
	if len(samples) < 3*win {
		return quantile(sortedCopy(samples), q)
	}
	var per []float64
	for lo := 0; lo+win <= len(samples); lo += win {
		per = append(per, quantile(sortedCopy(samples[lo:lo+win]), q))
	}
	return median(per)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package directory

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"lorm/internal/resource"
)

// benchEntries builds n deterministic entries spread over a handful of
// attributes with uniform values in [0, 1e6).
func benchEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(20090922))
	attrs := []string{"cpu", "mem", "disk", "net"}
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{
			Key: rng.Uint64() >> 1,
			Info: resource.Info{
				Attr:  attrs[i%len(attrs)],
				Value: rng.Float64() * 1e6,
				Owner: fmt.Sprintf("node%d", i%1024),
			},
		}
	}
	return es
}

// newBenchStore bulk-loads n entries (single sort+merge per attribute).
func newBenchStore(n int) *Store {
	var s Store
	s.AddAll(benchEntries(n))
	return &s
}

func newBenchLinear(n int) *linearStore {
	var s linearStore
	s.AddAll(benchEntries(n))
	return &s
}

// matchWindows precomputes query windows selecting roughly 1% of the value
// space so the measured cost is the search, not the copy-out.
func matchWindows(rng *rand.Rand, n int) [][2]float64 {
	ws := make([][2]float64, n)
	for i := range ws {
		lo := rng.Float64() * 0.99e6
		ws[i] = [2]float64{lo, lo + 1e4}
	}
	return ws
}

// BenchmarkDirMatch measures range matches against the ordered index at
// three directory sizes; BenchmarkDirMatchLinear is the seed linear scan
// at the acceptance-comparison size (10k).
func BenchmarkDirMatch(b *testing.B) {
	for _, n := range []int{100, 10_000, 1_000_000} {
		name := map[int]string{100: "100", 10_000: "10k", 1_000_000: "1M"}[n]
		b.Run(name, func(b *testing.B) {
			s := newBenchStore(n)
			ws := matchWindows(rand.New(rand.NewSource(7)), 1024)
			var dst []resource.Info
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := ws[i&1023]
				dst = s.MatchAppend(dst[:0], "cpu", w[0], w[1])
			}
			sinkInfos = dst
		})
	}
}

func BenchmarkDirMatchLinear(b *testing.B) {
	for _, n := range []int{10_000} {
		b.Run("10k", func(b *testing.B) {
			s := newBenchLinear(n)
			ws := matchWindows(rand.New(rand.NewSource(7)), 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := ws[i&1023]
				sinkInfos = s.Match("cpu", w[0], w[1])
			}
		})
	}
}

var (
	sinkInfos   []resource.Info
	sinkEntries []Entry
)

func BenchmarkDirAdd(b *testing.B) {
	es := benchEntries(1 << 16)
	var s Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(es[i&(1<<16-1)])
	}
}

// BenchmarkDirTakeRange measures churn handover: extract a random ~1% key
// interval from a 10k-entry directory and put it back (the put-back keeps
// the store populated across iterations and mirrors the real join path,
// where the extracted batch is AddAll'd into the joining node).
func BenchmarkDirTakeRange(b *testing.B) {
	s := newBenchStore(10_000)
	rng := rand.New(rand.NewSource(9))
	const width = uint64(1) << 56 // ~1.5% of the 63-bit key space
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Uint64() >> 1
		hi := lo + width
		moved := s.TakeRange(lo, hi, hi < lo)
		s.AddAll(moved)
		sinkEntries = moved
	}
}

// BenchmarkDirMixedParallel exercises the sharded locking: every worker
// mixes reads (90%) and writes (10%) across all four attributes.
func BenchmarkDirMixedParallel(b *testing.B) {
	s := newBenchStore(10_000)
	es := benchEntries(1 << 14)
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		attrs := []string{"cpu", "mem", "disk", "net"}
		rng := rand.New(rand.NewSource(int64(ctr.Add(1))))
		ws := matchWindows(rng, 128)
		var dst []resource.Info
		i := 0
		for pb.Next() {
			if i%10 == 9 {
				s.Add(es[rng.Intn(len(es))])
			} else {
				w := ws[i&127]
				dst = s.MatchAppend(dst[:0], attrs[i&3], w[0], w[1])
			}
			i++
		}
		sinkInfos = dst
	})
}

// TestMatchAppendZeroAlloc pins the acceptance criterion: the reused-buffer
// match path performs zero allocations per operation.
func TestMatchAppendZeroAlloc(t *testing.T) {
	s := newBenchStore(10_000)
	ws := matchWindows(rand.New(rand.NewSource(7)), 64)
	var dst []resource.Info
	// Warm the buffer to the largest window so no growth remains.
	for _, w := range ws {
		dst = s.MatchAppend(dst[:0], "cpu", w[0], w[1])
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, w := range ws {
			dst = s.MatchAppend(dst[:0], "cpu", w[0], w[1])
		}
	})
	if avg != 0 {
		t.Fatalf("MatchAppend allocates %.2f times per run, want 0", avg)
	}
}

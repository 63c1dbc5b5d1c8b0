package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lorm/internal/emulate"
	"lorm/internal/resource"
)

// benchDiscoverRequest is a representative mid-size frame: a two-attribute
// range query, the common shape on the cluster harness's wire.
func benchDiscoverRequest() *Request {
	return &Request{
		Version:   Version,
		ID:        42,
		Op:        OpDiscover,
		Requester: "bench-requester",
		Subs: []resource.SubQuery{
			{Attr: "cpu", Low: 1500, High: 3200},
			{Attr: "mem", Low: 2048, High: 8192},
		},
	}
}

// BenchmarkCodecRoundTrip measures one encode+decode cycle through the
// frame codec, allocation-counted — the per-message floor every verb pays.
func BenchmarkCodecRoundTrip(b *testing.B) {
	req := benchDiscoverRequest()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeFrame(&buf, req); err != nil {
			b.Fatal(err)
		}
		var out Request
		if err := readFrame(&buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecEncode isolates the write side (the sync.Pool'd buffer
// path), which allocates nothing; decode allocates the message it returns.
func BenchmarkCodecEncode(b *testing.B) {
	req := benchDiscoverRequest()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeFrame(&buf, req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClient measures closed-loop throughput of `workers` concurrent
// goroutines sharing one client against a real loopback-TCP gateway.
// perHop > 0 emulates wide-area forwarding delay per overlay message
// (emulate.WithHopLatency), the regime where pipelining pays: a serialized
// client is latency-bound at one op per service time while the pipelined
// client overlaps its window.
func benchClient(b *testing.B, window, workers int, perHop time.Duration) {
	srv, err := NewServer(emulate.WithHopLatency(testSystem(b), perHop), "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialOptions(srv.Addr(), Options{DialTimeout: time.Second, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	subs := []resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}
	if _, err := cli.Register(resource.Info{Attr: "cpu", Value: 1000, Owner: "bench"}); err != nil {
		b.Fatal(err)
	}
	var ops atomic.Int64
	start := time.Now()
	b.ResetTimer()
	// RunParallel spawns p*GOMAXPROCS goroutines; round up so `workers`
	// callers exist even on a single-core host.
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((workers + procs - 1) / procs)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, _, err := cli.Discover(subs, "bench"); err != nil {
				b.Error(err)
				return
			}
			ops.Add(1)
		}
	})
	b.StopTimer()
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(ops.Load())/sec, "ops/sec")
	}
}

// BenchmarkClientWindow compares the serialized (window=1, the seed
// one-request-per-round-trip behavior) and pipelined (window=64) client at
// 8+ concurrent callers over loopback TCP, both at zero added latency
// (CPU-bound: the two converge on a single-core host) and with 100µs of
// emulated per-message wide-area delay (latency-bound: the pipelined
// client overlaps service times and wins by roughly the caller count).
// The committed BENCH_cluster.json baseline records the same comparison
// via cmd/lormcluster.
func BenchmarkClientWindow(b *testing.B) {
	for _, c := range []struct {
		name   string
		perHop time.Duration
	}{
		{"loopback", 0},
		{"wan100us", 100 * time.Microsecond},
	} {
		for _, w := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/window=%d/callers=8", c.name, w), func(b *testing.B) {
				benchClient(b, w, 8, c.perHop)
			})
		}
	}
}

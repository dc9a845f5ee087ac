package bench

import (
	"bytes"
	"testing"

	"ompssgo/internal/dist"
	"ompssgo/internal/obs/metrics"
)

// Metrics-plane overhead microbenchmarks. The live metrics plane attaches
// to a serving runtime, so its hot-path contract is the same as the
// recorder's: zero allocations per increment/observation, enforced through
// testdata/alloc_budget.json. BenchmarkDistFrameRoundTrip and
// BenchmarkDistCodecRoundTrip pin the wire dispatch path's per-frame
// allocation cost, one-shot and steady state, so trace piggybacking cannot
// silently inflate it.

// BenchmarkMetricsCounterInc measures one counter increment.
func BenchmarkMetricsCounterInc(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatalf("count %d != %d", c.Value(), b.N)
	}
}

// BenchmarkMetricsGaugeSet measures one gauge store.
func BenchmarkMetricsGaugeSet(b *testing.B) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("bench_gauge", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

// BenchmarkMetricsHistogramObserve measures one latency observation,
// cycling across bucket indexes so the bit-length bucket map is exercised.
func BenchmarkMetricsHistogramObserve(b *testing.B) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("bench_seconds", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(1000 << (i % 20)))
	}
	if h.Count() != uint64(b.N) {
		b.Fatalf("count %d != %d", h.Count(), b.N)
	}
}

// benchTaskFrame is a task-dispatch frame shipping one 4 KiB read.
func benchTaskFrame() *dist.Frame {
	return &dist.Frame{Task: &dist.TaskMsg{
		ID:     7,
		Kernel: "bench.kernel",
		Args:   []byte{1, 2, 3, 4},
		NIn:    1,
		Reads:  []dist.WireRef{{Datum: 1, Ver: 2, Size: 4096, Bytes: make([]byte, 4096)}},
		Writes: []dist.WireOut{{Datum: 3, Ver: 1, Size: 4096, SeedFrom: -1}},
	}}
}

// BenchmarkDistFrameRoundTrip measures one task-dispatch frame through the
// one-shot codec (a fresh gob stream per frame, the handshake's form):
// encode a TaskMsg frame, decode it back. Its alloc ceiling guards the
// path now that trace batches piggyback on the same frame types.
func BenchmarkDistFrameRoundTrip(b *testing.B) {
	f := benchTaskFrame()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dist.WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := dist.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistCodecRoundTrip measures the same frame in steady state on
// a persistent codec pair — what every dispatch after a connection's
// first frame costs: type descriptors are already known to both ends and
// the frame buffers are warm.
func BenchmarkDistCodecRoundTrip(b *testing.B) {
	f := benchTaskFrame()
	tx, rx := dist.NewCodec(), dist.NewCodec()
	var buf bytes.Buffer
	for i := 0; i < 2; i++ { // warm-up: descriptors sent, buffers grown
		if err := tx.WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := rx.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tx.WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := rx.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

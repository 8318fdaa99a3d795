// Overhead pins for the tracing hot path. The external test package
// lets these benches drive a whole cluster (cluster imports trace, so
// an in-package bench would be an import cycle).

package trace_test

import (
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/trace"
)

// BenchmarkTraceDisabledOverhead runs a full 2-node synchronized system
// with NO tracer attached — every instrumentation site reduced to its
// never-taken nil check — and reports kernel event throughput, to set
// beside BenchmarkTraceEnabledOverhead. The zero-allocation contract of
// a detached tracer is pinned by TestEmitZeroAlloc, not by this timing.
func BenchmarkTraceDisabledOverhead(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		c := cluster.New(cluster.Defaults(2, 1998))
		c.Start(1)
		c.RunUntil(30)
		events += c.EventCount()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(30*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkTraceEnabledOverhead is the same system with a tracer
// attached (default options: flight path, rounds and faults recorded;
// dispatch and DMA words off) — the cost of *live* tracing.
func BenchmarkTraceEnabledOverhead(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := cluster.Defaults(2, 1998)
		cfg.Tracer = trace.New(trace.Options{})
		c := cluster.New(cfg)
		c.Start(1)
		c.RunUntil(30)
		events += c.EventCount()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(30*float64(b.N)/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkEmit times one hot-path record append into a warm ring.
func BenchmarkEmit(b *testing.B) {
	tr := trace.New(trace.Options{})
	tr.Emit(trace.KindFrameTx, 0, 0, 0, 0, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(trace.KindFrameTx, float64(i), 0, 0, uint64(i), 64, 57.6e-6)
	}
}

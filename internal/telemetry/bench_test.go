package telemetry

import (
	"testing"

	"toss/internal/simtime"
)

// The disabled (nil) tracer must cost only a pointer comparison on the hot
// path. Compare with BenchmarkSpanEnabled to see the full recording cost,
// and with package microvm's BenchmarkRunTracedOverhead for the end-to-end
// guard on instrumented invocation paths.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.Root(KindInvocation, "fn", 0)
		c := root.Child(KindExec, "exec", 0)
		c.EndAt(simtime.Duration(i))
		root.EndAt(simtime.Duration(i))
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.Root(KindInvocation, "fn", 0)
		c := root.Child(KindExec, "exec", 0)
		c.EndAt(simtime.Duration(i))
		root.EndAt(simtime.Duration(i))
		if i%4096 == 0 {
			tr = NewTracer() // keep memory bounded
		}
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var m *Metrics
	c := m.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	m := NewMetrics()
	c := m.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	m := NewMetrics()
	h := m.Histogram("x", LatencyBuckets())
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 100000))
	}
}

package workload

import (
	"testing"
)

// BenchmarkTraceCompile measures compiling a workload.Spec into an access
// trace — the per-cell cost every experiment pays before replaying. The
// varying seed defeats the trace cache, so this times the compiler itself.
func BenchmarkTraceCompile(b *testing.B) {
	spec := ByNameMust("json_load_dump")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Trace(IV, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCompileCached measures the memoized path: the same
// (function, level, seed) cell requested repeatedly, as the experiment
// sweeps do.
func BenchmarkTraceCompileCached(b *testing.B) {
	spec := ByNameMust("json_load_dump")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Trace(IV, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// mixSeed advances across benchmark runs, so no run of
// BenchmarkTraceCompileMix meets a seed the trace cache already holds.
var mixSeed int64

// BenchmarkTraceCompileMix measures the serve loop's compile mix: every
// Table I function at every level in turn, each with a fresh seed, so every
// iteration compiles a new trace and seeds its two rngs.
func BenchmarkTraceCompileMix(b *testing.B) {
	specs := Registry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		lv := Levels[i/len(specs)%len(Levels)]
		mixSeed++
		if _, err := spec.Trace(lv, mixSeed); err != nil {
			b.Fatal(err)
		}
	}
}

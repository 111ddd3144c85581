package cluster

import (
	"testing"

	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// millionArrivals is the day-shaped arrival stream BenchmarkClusterRun
// simulates: a diurnal baseline with flash-crowd episodes riding on it,
// ~1.1M arrivals over a one-hour horizon, never materialized.
func millionArrivals() workload.ArrivalsConfig {
	return workload.ArrivalsConfig{
		Process:   workload.ProcDiurnalFlash,
		Horizon:   3600 * simtime.Second,
		MeanIAT:   9 * simtime.Millisecond,
		Functions: testFns,
		Seed:      1,
	}
}

// benchClusterConfig sizes the fleet so the benchmark load is servable at
// mean rate and queues during flash peaks — the realistic regime, and the
// one that exercises the waiting ring.
func benchClusterConfig() Config {
	cfg := testConfig(4, RouteAffinity)
	cfg.Cores = 16
	return cfg
}

// BenchmarkClusterRun is the event core's headline number: one full
// million-invocation day-shape simulation per op, streaming arrivals, no
// observers attached. The acceptance budget is >=1M invocations simulated
// in under 5s of wall clock, the loop on one core, with <=2 amortized heap
// allocations per invocation; allocs/op divided by the reported
// "invocations" metric gives the per-invocation figure the CI guard
// watches.
func BenchmarkClusterRun(b *testing.B) {
	cfg := benchClusterConfig()
	profiles := testProfiles(testFns...)
	b.ReportAllocs()
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := workload.NewStream(millionArrivals())
		if err != nil {
			b.Fatal(err)
		}
		cl, err := New(cfg, profiles)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := cl.RunStream(src)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(rep.Records.Len())
	}
	b.StopTimer()
	invPerOp := float64(total) / float64(b.N)
	b.ReportMetric(invPerOp, "invocations")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, "inv/s")
	}
	if invPerOp < 1_000_000 {
		b.Fatalf("benchmark simulated %.0f invocations per op, want >= 1M", invPerOp)
	}
}

// TestClusterRunAllocBudget enforces the hot-path allocation budget as a
// tier-1 test (the benchmark-based CI guard is warn-only): a ~55k-
// invocation run, including cluster construction and stream setup, must
// stay under 2 amortized heap allocations per invocation.
func TestClusterRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	if testing.Short() {
		t.Skip("skipping 55k-invocation allocation count in -short mode")
	}
	acfg := millionArrivals()
	acfg.Horizon = 180 * simtime.Second
	profiles := testProfiles(testFns...)
	var invocations int
	avg := testing.AllocsPerRun(1, func() {
		src, err := workload.NewStream(acfg)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := New(benchClusterConfig(), profiles)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cl.RunStream(src)
		if err != nil {
			t.Fatal(err)
		}
		invocations = rep.Records.Len()
	})
	if invocations == 0 {
		t.Fatal("no invocations simulated")
	}
	perInv := avg / float64(invocations)
	t.Logf("%d invocations, %.0f allocations, %.4f allocs/invocation", invocations, avg, perInv)
	if perInv > 2 {
		t.Fatalf("amortized allocations per invocation %.4f > 2 (total %.0f over %d invocations)",
			perInv, avg, invocations)
	}
}

// TestRunStreamMatchesRun pins that a run fed by the lazy generator stream
// is byte-identical to a run replaying the same schedule from a slice — the
// cluster-level half of the streaming-equals-materialized contract (the
// workload-level half lives in workload's stream tests).
func TestRunStreamMatchesRun(t *testing.T) {
	materialized, err := runRendered(testConfig(3, RouteAffinity),
		testArrivals(t, workload.ProcDiurnalFlash, 40*simtime.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	src, err := workload.NewStream(workload.ArrivalsConfig{
		Process:   workload.ProcDiurnalFlash,
		Horizon:   60 * simtime.Second,
		MeanIAT:   40 * simtime.Millisecond,
		Functions: testFns,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3, RouteAffinity)
	col := &xray.Collector{}
	cfg.XRay = col
	cl, err := New(cfg, testProfiles(testFns...))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.RunStream(src)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := materialized, renderReport(rep)+renderBudgets(col.Drain()); a != b {
		t.Fatalf("streaming run diverged from materialized run:\nmaterialized:\n%s\nstreaming:\n%s", a, b)
	}
}

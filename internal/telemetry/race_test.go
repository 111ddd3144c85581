package telemetry_test

// Concurrency tests for the attribution/metrics hot paths: a par.Map fan-out
// hammers labeled instruments and the xray collector from many goroutines,
// then asserts the aggregate is exact. Run with -race (CI does) — the value
// of these tests is the race detector watching the shared registries while
// the assertions pin down lost-update bugs.

import (
	"testing"

	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/xray"
)

func TestLabeledInstrumentsUnderParMap(t *testing.T) {
	m := telemetry.NewMetrics()
	pool := par.New(8)
	const n = 400
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	_, err := par.Map(pool, items, func(i, v int) (struct{}, error) {
		// Two labeled series, interleaved across workers; Labeled itself is
		// pure but the Counter/Histogram lookups share the registry maps.
		tier := "fast"
		if v%2 == 1 {
			tier = "slow"
		}
		m.Counter(telemetry.Labeled("toss_race_pages", "tier", tier)).Add(int64(v))
		m.Histogram(telemetry.Labeled("toss_race_lat", "tier", tier), telemetry.LatencyBuckets()).Observe(int64(v))
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactness: sum(0..399 even) and sum(1..399 odd).
	var evens, odds int64
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			evens += int64(i)
		} else {
			odds += int64(i)
		}
	}
	if got := m.Counter(telemetry.Labeled("toss_race_pages", "tier", "fast")).Value(); got != evens {
		t.Fatalf("fast counter lost updates: got %d want %d", got, evens)
	}
	if got := m.Counter(telemetry.Labeled("toss_race_pages", "tier", "slow")).Value(); got != odds {
		t.Fatalf("slow counter lost updates: got %d want %d", got, odds)
	}
	// Each must see all four instruments with consistent samples while other
	// goroutines may still be reading.
	var ctrs, hists int
	var ctrSum int64
	m.Each(func(name string, kind telemetry.Kind, s telemetry.Sample) {
		switch kind {
		case telemetry.KindCounter:
			ctrs++
			ctrSum += s.Value
		case telemetry.KindHistogram:
			hists++
			if s.Count != n/2 {
				t.Errorf("%s: histogram count %d, want %d", name, s.Count, n/2)
			}
		}
	})
	if ctrs != 2 || hists != 2 {
		t.Fatalf("Each saw %d counters, %d histograms; want 2 and 2", ctrs, hists)
	}
	if ctrSum != evens+odds {
		t.Fatalf("Each counter sum %d, want %d", ctrSum, evens+odds)
	}
}

func TestXRayCollectorUnderParMap(t *testing.T) {
	col := xray.NewCollector()
	pool := par.New(8)
	const n = 256
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	_, err := par.Map(pool, items, func(i, v int) (struct{}, error) {
		b := xray.New("fn")
		d := simtime.Duration(v+1) * simtime.Microsecond
		b.Add(xray.SegExecCPU, d)
		b.Seal(d)
		col.Observe(b)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(col.Snapshot()); got != n {
		t.Fatalf("collector lost budgets: %d/%d", got, n)
	}
	// Aggregate is commutative, so the report must be exact regardless of
	// the order the workers observed their budgets in.
	rep := xray.Aggregate("race", col.Drain())
	want := simtime.Duration(n*(n+1)/2) * simtime.Microsecond
	if rep.Records != n || rep.Total != want {
		t.Fatalf("aggregate: records %d total %v, want %d / %v", rep.Records, rep.Total, n, want)
	}
	fr := rep.Functions[0]
	if fr.Segments[0].ID != xray.SegExecCPU || fr.Segments[0].Total != want || fr.Segments[0].Count != n {
		t.Fatalf("segment aggregate: %+v", fr.Segments[0])
	}
}

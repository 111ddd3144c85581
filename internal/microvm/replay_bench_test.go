package microvm

import (
	"math/rand"
	"testing"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/snapshot"
	"toss/internal/workload"
)

// benchTrace compiles a realistic Table I trace once for the replay benches.
func benchTrace(b *testing.B) (*Machine, func() *Machine) {
	b.Helper()
	spec := workload.ByNameMust("json_load_dump")
	layout, err := spec.Layout()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	mk := func() *Machine {
		return NewResident(cfg, layout, []guest.Region{{Start: 0, Pages: layout.TotalPages / 2}}, 1)
	}
	return mk(), mk
}

// BenchmarkTraceReplay measures replaying one invocation on a resident
// machine with truth recording off — the Suite.execResident hot path that
// dominates bin profiling and every figure's measurement cells.
func BenchmarkTraceReplay(b *testing.B) {
	_, mk := benchTrace(b)
	spec := workload.ByNameMust("json_load_dump")
	tr, err := spec.Trace(workload.IV, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := mk()
		vm.SetRecordTruth(false)
		if _, err := vm.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplayTruth is the profiling-path variant: truth recording
// on, as every Step II invocation pays it.
func BenchmarkTraceReplayTruth(b *testing.B) {
	_, mk := benchTrace(b)
	spec := workload.ByNameMust("json_load_dump")
	tr, err := spec.Trace(workload.IV, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := mk()
		if _, err := vm.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPlacement keeps a trace's random-access regions, the latency-bound ones
// TOSS keeps in DRAM, in the fast tier and puts the rest of the guest in
// the slow tier — the shape of a converged layout.
func hotPlacement(tr *access.Trace, layout guest.Layout) *mem.MultiPlacement {
	var fast, slow []guest.Region
	for _, e := range tr.Events {
		if e.Pattern == access.Random {
			fast = append(fast, e.Region)
		}
	}
	next := guest.PageID(0)
	for _, r := range guest.NormalizeRegions(fast) {
		slow = append(slow, guest.Region{Start: next, Pages: int64(r.Start - next)})
		next = r.End()
	}
	return twoTier(layout, append(slow, guest.Region{Start: next, Pages: layout.TotalPages - int64(next)}))
}

// restoreTieredRun returns the serving hot path that
// BenchmarkRestoreTieredRun times: a tiered restore of lr_serving's 1 GiB
// guest, then a replay of a fresh input with truth recording off.
func restoreTieredRun(tb testing.TB) func() {
	tb.Helper()
	cfg := DefaultConfig()
	spec := workload.ByNameMust("lr_serving")
	layout, err := spec.Layout()
	if err != nil {
		tb.Fatal(err)
	}
	first, err := spec.Trace(workload.I, 1)
	if err != nil {
		tb.Fatal(err)
	}
	booted := NewBooted(cfg, layout)
	if _, err := booted.Run(first); err != nil {
		tb.Fatal(err)
	}
	single, _ := booted.SnapshotTraced(spec.Name, nil, 0)
	ts := snapshot.BuildTiered(single, hotPlacement(first, layout))
	tr, err := spec.Trace(workload.IV, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		vm := RestoreTiered(cfg, layout, ts, 1)
		vm.SetRecordTruth(false)
		if _, err := vm.Run(tr); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRestoreTieredRun measures the serving hot path: a tiered restore
// of lr_serving's 1 GiB guest, then a replay of a fresh input with truth
// recording off.
func BenchmarkRestoreTieredRun(b *testing.B) {
	run := restoreTieredRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestRestoreTieredRunAllocBudget holds BenchmarkRestoreTieredRun's loop to
// three allocations: the machine, the copy of the shared resident set that
// the first touch makes, and the empty truth histogram. The setup parts live
// in the machine, their span attributes are built only when a span is
// attached, and an event's tier splits and freshly touched runs allocate
// nothing.
func TestRestoreTieredRunAllocBudget(t *testing.T) {
	run := restoreTieredRun(t)
	if got := testing.AllocsPerRun(200, run); got > 3 {
		t.Fatalf("a tiered restore and run allocates %v times, want at most 3", got)
	}
}

// BenchmarkTouchScattered is the extent set's worst case: disjoint
// single-page first touches in random order. Each lands between two runs
// and shifts the tail of the set, so an op costs O(touches²). No generated
// trace comes close; the benchmark keeps the cost in view.
func BenchmarkTouchScattered(b *testing.B) {
	const touches = 1 << 14
	spec := workload.ByNameMust("lr_serving")
	layout, err := spec.Layout()
	if err != nil {
		b.Fatal(err)
	}
	var tr access.Trace
	for _, k := range rand.New(rand.NewSource(1)).Perm(touches) {
		tr.Append(access.Event{
			Region:       guest.Region{Start: layout.Heap.Start + guest.PageID(2*k), Pages: 1},
			LinesPerPage: 1, Repeat: 1, Kind: access.Read, Pattern: access.Random,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := NewBooted(DefaultConfig(), layout)
		vm.SetRecordTruth(false)
		if _, err := vm.Run(&tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*touches), "ns/touch")
}

package microvm

import (
	"testing"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
	"toss/internal/snapshot"
)

func testLayout(t *testing.T) guest.Layout {
	t.Helper()
	l, err := guest.NewLayout(guest.MiB(16), guest.MiB(4))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func seqTrace(r guest.Region, repeat int) *access.Trace {
	var tr access.Trace
	tr.Append(access.Event{
		Region: r, LinesPerPage: 64, Repeat: repeat,
		Kind: access.Read, Pattern: access.Sequential, HitRatio: 0,
	})
	return &tr
}

func randTrace(r guest.Region, repeat int) *access.Trace {
	var tr access.Trace
	tr.Append(access.Event{
		Region: r, LinesPerPage: 8, Repeat: repeat,
		Kind: access.Read, Pattern: access.Random, HitRatio: 0,
	})
	return &tr
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	c := DefaultConfig()
	c.MmapCost = -1
	if err := c.Validate(); err == nil {
		t.Error("negative mmap cost accepted")
	}
	c = DefaultConfig()
	c.FaultAroundPages = 0
	if err := c.Validate(); err == nil {
		t.Error("zero fault-around accepted")
	}
}

func TestBootedMachineRunsWithMinorFaultsOnly(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	m := NewBooted(cfg, l)
	if m.SetupTime() != cfg.BootTime {
		t.Errorf("SetupTime = %v, want boot time %v", m.SetupTime(), cfg.BootTime)
	}
	// Touch heap pages: anonymous backing, so minor faults only.
	r := guest.Region{Start: l.Heap.Start, Pages: 10}
	res, err := m.Run(seqTrace(r, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults != 0 {
		t.Errorf("MajorFaults = %d on anon backing", res.MajorFaults)
	}
	if res.MinorFaults != 10 {
		t.Errorf("MinorFaults = %d, want 10", res.MinorFaults)
	}
	// Boot image pages are already resident.
	m2 := NewBooted(cfg, l)
	res2, err := m2.Run(seqTrace(guest.Region{Start: 0, Pages: 5}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.MinorFaults != 0 || res2.MajorFaults != 0 {
		t.Errorf("boot image touch faulted: major=%d minor=%d", res2.MajorFaults, res2.MinorFaults)
	}
}

func TestRunRejectsOutOfRangeTrace(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	m := NewBooted(cfg, l)
	if _, err := m.Run(seqTrace(guest.Region{Start: 0, Pages: l.TotalPages + 1}, 1)); err == nil {
		t.Error("out-of-range trace accepted")
	}
}

func TestFaultsOnlyOnFirstTouch(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	snap := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", l.TotalPages,
		[]guest.Region{{Start: 0, Pages: l.TotalPages}})}
	m := RestoreLazy(cfg, l, snap, 1)
	r := guest.Region{Start: 100, Pages: 20}
	var tr access.Trace
	tr.Append(access.Event{Region: r, LinesPerPage: 1, Repeat: 1, Kind: access.Read, Pattern: access.Sequential})
	tr.Append(access.Event{Region: r, LinesPerPage: 1, Repeat: 1, Kind: access.Read, Pattern: access.Sequential})
	res, err := m.Run(&tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults != 20 {
		t.Errorf("MajorFaults = %d, want 20 (second touch must not fault)", res.MajorFaults)
	}
}

func TestLazyVsREAPSetupAndFaults(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	ws := []guest.Region{{Start: 100, Pages: 512}}
	snap := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", l.TotalPages, ws)}

	lazy := RestoreLazy(cfg, l, snap, 1)
	reap := RestoreREAP(cfg, l, snap, ws, 1)

	if reap.SetupTime() <= lazy.SetupTime() {
		t.Errorf("REAP setup %v not greater than lazy %v", reap.SetupTime(), lazy.SetupTime())
	}

	tr := randTrace(guest.Region{Start: 100, Pages: 512}, 4)
	lazyRes, err := lazy.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	reapRes, err := reap.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if lazyRes.MajorFaults != 512 {
		t.Errorf("lazy faults = %d, want 512", lazyRes.MajorFaults)
	}
	if reapRes.MajorFaults != 0 {
		t.Errorf("REAP faulted %d prefetched pages", reapRes.MajorFaults)
	}
	// REAP's pitch: for random access inside the WS, exec is much faster.
	if reapRes.Exec >= lazyRes.Exec {
		t.Errorf("REAP exec %v not faster than lazy %v", reapRes.Exec, lazyRes.Exec)
	}
}

func TestREAPMissingPagesFault(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	ws := []guest.Region{{Start: 100, Pages: 100}}
	snap := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", l.TotalPages, ws)}
	m := RestoreREAP(cfg, l, snap, ws, 1)
	// Execution touches [150, 250): 50 inside WS, 50 outside.
	res, err := m.Run(randTrace(guest.Region{Start: 150, Pages: 100}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults != 50 {
		t.Errorf("MajorFaults = %d, want 50", res.MajorFaults)
	}
}

func buildTiered(t *testing.T, l guest.Layout, resident, slow []guest.Region) *snapshot.Tiered {
	t.Helper()
	s := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", l.TotalPages, resident)}
	return snapshot.BuildTiered(s, mem.NewPlacement(slow))
}

func TestRestoreTieredPlacementAndResidency(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	resident := []guest.Region{{Start: 0, Pages: 200}}
	slow := []guest.Region{{Start: 50, Pages: 100}}
	ts := buildTiered(t, l, resident, slow)
	m := RestoreTiered(cfg, l, ts, 1)

	if got := m.Placement().TierOf(60); got != mem.Slow {
		t.Errorf("page 60 tier = %v, want slow", got)
	}
	if got := m.Placement().TierOf(10); got != mem.Fast {
		t.Errorf("page 10 tier = %v, want fast", got)
	}
	wantSetup := cfg.VMLoadBase + simtime.Duration(ts.Regions())*cfg.MmapCost
	if m.SetupTime() != wantSetup {
		t.Errorf("SetupTime = %v, want %v", m.SetupTime(), wantSetup)
	}

	// Slow pages are DAX-resident: touching them is fault-free; fast pages
	// demand-fault.
	res, err := m.Run(randTrace(guest.Region{Start: 50, Pages: 100}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults != 0 {
		t.Errorf("slow-tier touch faulted %d pages", res.MajorFaults)
	}
	m2 := RestoreTiered(cfg, l, ts, 1)
	res2, err := m2.Run(randTrace(guest.Region{Start: 0, Pages: 50}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.MajorFaults != 50 {
		t.Errorf("fast-tier faults = %d, want 50", res2.MajorFaults)
	}
}

func TestTieredSlowExecutionSlower(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	resident := []guest.Region{{Start: 0, Pages: 512}}
	allFast := buildTiered(t, l, resident, nil)
	allSlow := buildTiered(t, l, resident, resident)

	tr := randTrace(guest.Region{Start: 0, Pages: 512}, 8)
	fastRes, err := RestoreTiered(cfg, l, allFast, 1).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := RestoreTiered(cfg, l, allSlow, 1).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Execution from the slow tier must be slower, but restore-side the
	// slow tier skips the disk loads, so compare pure memory service.
	if slowRes.Meter.MemTime[mem.Slow] <= fastRes.Meter.MemTime[mem.Fast] {
		t.Errorf("slow mem time %v not greater than fast %v",
			slowRes.Meter.MemTime[mem.Slow], fastRes.Meter.MemTime[mem.Fast])
	}
	if slowRes.FaultTime != 0 {
		t.Errorf("all-slow run paid fault time %v", slowRes.FaultTime)
	}
}

func TestConcurrencySlowsExecution(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	resident := []guest.Region{{Start: 0, Pages: 256}}
	ts := buildTiered(t, l, resident, resident)
	tr := randTrace(guest.Region{Start: 0, Pages: 256}, 16)

	one, err := RestoreTiered(cfg, l, ts, 1).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	twenty, err := RestoreTiered(cfg, l, ts, 20).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if twenty.Exec <= one.Exec {
		t.Errorf("20-way exec %v not slower than 1-way %v", twenty.Exec, one.Exec)
	}
}

func TestSequentialFaultsCheaperThanRandom(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	snap := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", l.TotalPages,
		[]guest.Region{{Start: 0, Pages: 1024}})}

	seq, err := RestoreLazy(cfg, l, snap, 1).Run(seqTrace(guest.Region{Start: 0, Pages: 1024}, 1))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RestoreLazy(cfg, l, snap, 1).Run(randTrace(guest.Region{Start: 0, Pages: 1024}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.FaultTime >= rnd.FaultTime {
		t.Errorf("sequential fault time %v not cheaper than random %v", seq.FaultTime, rnd.FaultTime)
	}
}

func TestUffdFaultsContendUnderConcurrency(t *testing.T) {
	// REAP's userspace fault handler serializes concurrent misses: the same
	// out-of-WS access pattern costs more per fault at 20-way concurrency.
	cfg := DefaultConfig()
	l := testLayout(t)
	ws := []guest.Region{{Start: 0, Pages: 64}}
	snap := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", l.TotalPages,
		[]guest.Region{{Start: 0, Pages: 1024}})}
	tr := randTrace(guest.Region{Start: 256, Pages: 256}, 1) // all misses

	one, err := RestoreREAP(cfg, l, snap, ws, 1).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	twenty, err := RestoreREAP(cfg, l, snap, ws, 20).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if one.MajorFaults != 256 || twenty.MajorFaults != 256 {
		t.Fatalf("fault counts %d/%d, want 256", one.MajorFaults, twenty.MajorFaults)
	}
	ratio := float64(twenty.FaultTime) / float64(one.FaultTime)
	want := 1 + cfg.UffdContentionBeta*19*0.5 // at least half the full factor
	if ratio < want {
		t.Errorf("uffd fault-time contention ratio = %.2f, want >= %.2f", ratio, want)
	}
}

func TestResultTotalsAndTruth(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	m := NewBooted(cfg, l)
	r := guest.Region{Start: l.Heap.Start, Pages: 4}
	res, err := m.Run(seqTrace(r, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != res.Setup+res.Exec {
		t.Error("Total != Setup+Exec")
	}
	if res.Truth.Count(l.Heap.Start) != 64*3 {
		t.Errorf("truth count = %d, want 192", res.Truth.Count(l.Heap.Start))
	}
}

func TestSnapshotCapturesResidentPages(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	m := NewBooted(cfg, l)
	r := guest.Region{Start: l.Heap.Start, Pages: 8}
	if _, err := m.Run(seqTrace(r, 1)); err != nil {
		t.Fatal(err)
	}
	snap, cost := m.Snapshot("fn")
	if cost <= 0 {
		t.Error("snapshot capture cost not positive")
	}
	want := l.BootImage.Pages + 8
	if int64(len(snap.Memory.Pages)) != want {
		t.Errorf("snapshot pages = %d, want %d", len(snap.Memory.Pages), want)
	}
	if snap.Function != "fn" {
		t.Errorf("Function = %q", snap.Function)
	}
}

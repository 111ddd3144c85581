package microvm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/snapshot"
	"toss/internal/xray"
)

// restoreRun restores ts, runs tr, and returns the result with the resident
// regions the run leaves behind.
func restoreRun(cfg Config, l guest.Layout, ts *snapshot.Tiered, tr *access.Trace) (Result, []guest.Region, error) {
	vm := RestoreTiered(cfg, l, ts, 1)
	res, err := vm.Run(tr)
	if err != nil {
		return Result{}, nil, err
	}
	snap, _ := vm.SnapshotTraced("f", nil, 0)
	return res, snap.Memory.ResidentRegions(), nil
}

// TestRestoredMachinesShareViewReadOnly restores two machines from one
// snapshot and runs a trace on the first whose touches grow a slow extent,
// bridge it to the next and fill holes. The snapshot's view must be
// unchanged, and the second machine must then run exactly as a fresh
// restore of an identical snapshot does.
func TestRestoredMachinesShareViewReadOnly(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	resident := []guest.Region{{Start: 0, Pages: 300}, {Start: 400, Pages: 100}}
	slow := []guest.Region{{Start: 50, Pages: 100}, {Start: 420, Pages: 20}}
	var tr access.Trace
	for _, r := range []guest.Region{{Start: 40, Pages: 20}, {Start: 140, Pages: 300}, {Start: 600, Pages: 10}} {
		tr.Append(access.Event{Region: r, LinesPerPage: 8, Repeat: 1, Kind: access.Write, Pattern: access.Random})
	}
	want, wantResident, err := restoreRun(cfg, l, buildTiered(t, l, resident, slow), &tr)
	if err != nil {
		t.Fatal(err)
	}

	ts := buildTiered(t, l, resident, slow)
	viewSlow := slices.Clone(ts.View().Slow)
	first, second := RestoreTiered(cfg, l, ts, 1), RestoreTiered(cfg, l, ts, 1)
	if _, err := first.Run(&tr); err != nil {
		t.Fatal(err)
	}
	if got := ts.View().Slow; !slices.Equal(got, viewSlow) {
		t.Fatalf("a run wrote into the shared view: slow extents %v, were %v", got, viewSlow)
	}
	got, err := second.Run(&tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second machine ran %+v, a fresh restore %+v", got, want)
	}
	snap, _ := second.SnapshotTraced("f", nil, 0)
	if gotResident := snap.Memory.ResidentRegions(); !slices.Equal(gotResident, wantResident) {
		t.Fatalf("second machine left %v resident, a fresh restore %v", gotResident, wantResident)
	}
}

// TestTieredRestoreSameFromEveryConstructor restores a snapshot built by
// BuildTiered, its WriteTiered/ReadTiered round trip, and a hand-built
// Tiered literal of the same fields (which has no view of its own), and
// requires identical results, attribution budgets and resident sets.
func TestTieredRestoreSameFromEveryConstructor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.XRay = xray.NewCollector()
	l := testLayout(t)
	n := l.TotalPages
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		captured := randRegions(rng, n, 1+rng.Intn(12))
		slow := randRegions(rng, n, rng.Intn(8))
		tr := randTraceIn(rng, n, 1+rng.Intn(60))
		built := buildTiered(t, l, captured, slow)
		dir := t.TempDir()
		if err := snapshot.WriteTiered(dir, built); err != nil {
			t.Fatal(err)
		}
		read, err := snapshot.ReadTiered(dir)
		if err != nil {
			t.Fatal(err)
		}
		literal := &snapshot.Tiered{Function: built.Function, GuestPages: built.GuestPages, Entries: built.Entries,
			FastMem: built.FastMem, SlowMem: built.SlowMem, Sum: built.Sum}
		want, wantResident, err := restoreRun(cfg, l, built, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			ts   *snapshot.Tiered
		}{{"read", read}, {"literal", literal}} {
			got, gotResident, err := restoreRun(cfg, l, c.ts, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !slices.Equal(gotResident, wantResident) {
				t.Errorf("seed %d %s: ran %+v leaving %v, built snapshot %+v leaving %v",
					seed, c.name, got, gotResident, want, wantResident)
			}
		}
	}
}

// TestConcurrentRestoresOfOneSnapshot restores and runs one snapshot from
// several goroutines at once, each with its own traces, and requires every
// result to equal a serial run's. Run it under -race.
func TestConcurrentRestoresOfOneSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	n := l.TotalPages
	rng := rand.New(rand.NewSource(7))
	ts := buildTiered(t, l, randRegions(rng, n, 10), randRegions(rng, n, 6))
	traces := make([]*access.Trace, 8)
	want := make([]Result, len(traces))
	for i := range traces {
		traces[i] = randTraceIn(rng, n, 40)
		var err error
		if want[i], _, err = restoreRun(cfg, l, ts, traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(traces))
	for g := range traces {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(traces)
				got, _, err := restoreRun(cfg, l, ts, traces[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("trace %d ran %+v, serially %+v", i, got, want[i])
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

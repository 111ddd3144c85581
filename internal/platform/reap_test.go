package platform

import (
	"testing"

	"toss/internal/core"
	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/workload"
)

// newFunction returns a fresh mechanism serving name under mode with the
// default configuration.
func newFunction(t *testing.T, name string, mode Mode) *Function {
	t.Helper()
	f, err := NewFunction(core.DefaultConfig(), workload.ByNameMust(name), mode)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// cold serves one invocation of f from storage at concurrency 1.
func cold(t *testing.T, f *Function, lv workload.Level, seed int64) Record {
	t.Helper()
	rec := f.Cold(lv, seed, 1, nil)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	return rec
}

func TestREAPFirstInvocationCapturesSnapshotAndWS(t *testing.T) {
	f := newFunction(t, "json_load_dump", ModeREAP)
	if f.Ready() {
		t.Fatal("fresh function is ready")
	}
	cold(t, f, workload.II, 1)
	if !f.Ready() || f.single == nil {
		t.Fatal("snapshot not captured")
	}
	// The userfaultfd working set is exactly the invocation's touched pages.
	tr, err := workload.ByNameMust("json_load_dump").Trace(workload.II, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := guest.TotalPages(f.ws), tr.FootprintPages(); got != want || got <= 0 {
		t.Errorf("working set %d pages, want the %d touched", got, want)
	}
	if fast, slow := f.Footprint(); fast != tr.FootprintPages() || slow != 0 {
		t.Errorf("Footprint = (%d, %d), want the working set (%d, 0)", fast, slow, tr.FootprintPages())
	}
}

func TestREAPMatchedInputAvoidsFaults(t *testing.T) {
	f := newFunction(t, "json_load_dump", ModeREAP)
	cold(t, f, workload.IV, 1)
	// Same input, same seed: the WS covers everything.
	if rec := cold(t, f, workload.IV, 1); rec.Faults != 0 {
		t.Errorf("matched input faulted %d pages", rec.Faults)
	}
}

func TestREAPInputMismatchCausesFaultsAndSlowdown(t *testing.T) {
	// Snapshot with the smallest input, execute the largest: the recorded
	// WS misses most of the large input's pages (Fig. 3's worst case).
	fSmall := newFunction(t, "compress", ModeREAP)
	cold(t, fSmall, workload.I, 1)
	small := cold(t, fSmall, workload.IV, 2)

	fBig := newFunction(t, "compress", ModeREAP)
	cold(t, fBig, workload.IV, 1)
	big := cold(t, fBig, workload.IV, 2)

	if small.Faults <= big.Faults {
		t.Errorf("mismatched snapshot faults (%d) not worse than matched (%d)", small.Faults, big.Faults)
	}
	if small.Exec <= big.Exec {
		t.Errorf("mismatched exec %v not slower than matched %v", small.Exec, big.Exec)
	}
	// And the matched big snapshot pays for it in setup time.
	if big.Setup <= small.Setup {
		t.Errorf("big-WS setup %v not larger than small-WS setup %v", big.Setup, small.Setup)
	}
}

func TestREAPSeedJitterCausesResidualFaults(t *testing.T) {
	// Observation #3: same input, different seeds -> slightly different
	// pages -> a few faults even with a matched snapshot input.
	f := newFunction(t, "matmul", ModeREAP)
	cold(t, f, workload.III, 1)
	rec := cold(t, f, workload.III, 99)
	if rec.Faults == 0 {
		t.Error("expected residual faults from allocation jitter, got none")
	}
	// But they are a small fraction of the footprint.
	tr, err := workload.ByNameMust("matmul").Trace(workload.III, 99)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Faults > tr.FootprintPages()/4 {
		t.Errorf("jitter faults %d are too large a share of footprint %d", rec.Faults, tr.FootprintPages())
	}
}

func TestREAPSetupGrowsWithWorkingSet(t *testing.T) {
	small := newFunction(t, "float_operation", ModeREAP)
	cold(t, small, workload.I, 1)
	big := newFunction(t, "compress", ModeREAP)
	cold(t, big, workload.IV, 1)
	rs := cold(t, small, workload.I, 2)
	rb := cold(t, big, workload.IV, 2)
	if rb.Setup <= rs.Setup {
		t.Errorf("setup did not grow with WS: %v (compress) vs %v (float)", rb.Setup, rs.Setup)
	}
	// A pre-warm restore prefetches the same working set.
	if small.Prewarm() >= big.Prewarm() {
		t.Errorf("pre-warm did not grow with WS: %v (compress) vs %v (float)", big.Prewarm(), small.Prewarm())
	}
}

// TestFaaSnapInflatesWorkingSet holds ext6's claim on its inputs
// (json_load_dump, snapshot input II, seed 1): mincore records more pages
// than userfaultfd, and covers every page userfaultfd records.
func TestFaaSnapInflatesWorkingSet(t *testing.T) {
	fs := newFunction(t, "json_load_dump", ModeFaaSnap)
	rp := newFunction(t, "json_load_dump", ModeREAP)
	cold(t, fs, workload.II, 1)
	cold(t, rp, workload.II, 1)
	fsPages, _ := fs.Footprint()
	rpPages, _ := rp.Footprint()
	if fsPages <= rpPages {
		t.Errorf("mincore WS (%d pages) not larger than uffd WS (%d pages)", fsPages, rpPages)
	}
	covered := make([]bool, fs.layout.TotalPages)
	for _, r := range fs.ws {
		for p := r.Start; p < r.End(); p++ {
			covered[p] = true
		}
	}
	for _, r := range rp.ws {
		for p := r.Start; p < r.End(); p++ {
			if !covered[p] {
				t.Fatalf("mincore WS misses uffd page %d", p)
			}
		}
	}
}

func TestFaaSnapSetupCostlierFaultsFewer(t *testing.T) {
	// FaaSnap's trade: bigger prefetch (setup) but at least as few residual
	// faults as REAP for the same inputs.
	fs := newFunction(t, "matmul", ModeFaaSnap)
	rp := newFunction(t, "matmul", ModeREAP)
	cold(t, fs, workload.III, 1)
	cold(t, rp, workload.III, 1)
	fsRec := cold(t, fs, workload.III, 9)
	rpRec := cold(t, rp, workload.III, 9)
	if fsRec.Setup <= rpRec.Setup {
		t.Errorf("FaaSnap setup %v not above REAP %v", fsRec.Setup, rpRec.Setup)
	}
	if fsRec.Faults > rpRec.Faults {
		t.Errorf("FaaSnap faults %d exceed REAP %d", fsRec.Faults, rpRec.Faults)
	}
}

func TestFaaSnapSubsequentInvocationsDelegate(t *testing.T) {
	// After the first invocation FaaSnap restores exactly as REAP does:
	// prefetch the recorded (mincore) working set, demand-fault the rest.
	fs := newFunction(t, "pyaes", ModeFaaSnap)
	if got, want := fs.Prewarm(), fs.cfg.VM.VMLoadBase; got != want {
		t.Errorf("Prewarm before the capture = %v, want the restore base %v", got, want)
	}
	first := cold(t, fs, workload.I, 1)
	if !fs.Ready() {
		t.Fatal("first invocation captured no snapshot")
	}
	second := cold(t, fs, workload.I, 2)
	if second.Setup >= first.Setup {
		t.Errorf("restore setup %v not below boot setup %v", second.Setup, first.Setup)
	}
	tr, err := fs.spec.Trace(workload.I, 2)
	if err != nil {
		t.Fatal(err)
	}
	vm := microvm.RestoreREAP(fs.cfg.VM, fs.layout, fs.single, fs.ws, 1)
	vm.SetRecordTruth(false)
	want, err := vm.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if second.Setup != want.Setup || second.Exec != want.Exec || second.Faults != want.MajorFaults {
		t.Errorf("second invocation (setup %v, exec %v, %d faults) differs from a REAP restore of the mincore WS (setup %v, exec %v, %d faults)",
			second.Setup, second.Exec, second.Faults, want.Setup, want.Exec, want.MajorFaults)
	}
}

func TestFaaSnapWSClampedToGuest(t *testing.T) {
	fs := newFunction(t, "compress", ModeFaaSnap)
	cold(t, fs, workload.IV, 1)
	for _, r := range fs.ws {
		if r.End() > guest.PageID(fs.layout.TotalPages) {
			t.Fatalf("WS region %v exceeds guest %d pages", r, fs.layout.TotalPages)
		}
	}
}

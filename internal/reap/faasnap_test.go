package reap

import (
	"testing"

	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/workload"
	"toss/internal/wstrack"
)

func newFaaSnap(t *testing.T, name string) *Manager {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	m, err := NewFaaSnapManager(microvm.DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFaaSnapInflatesWorkingSet(t *testing.T) {
	fs := newFaaSnap(t, "json_load_dump")
	rp := newManager(t, "json_load_dump")
	if _, err := fs.Invoke(workload.II, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Invoke(workload.II, 1, 1); err != nil {
		t.Fatal(err)
	}
	if fs.WorkingSetPages() <= rp.WorkingSetPages() {
		t.Errorf("mincore WS (%d pages) not larger than uffd WS (%d pages)",
			fs.WorkingSetPages(), rp.WorkingSetPages())
	}
	if f := fs.InflationFactor(rp.WorkingSetPages()); f <= 1 {
		t.Errorf("InflationFactor = %v, want > 1", f)
	}
	// The inflated WS must still cover the true one.
	if len(wstrack.Missing(rp.WorkingSet(), fs.WorkingSet())) != 0 {
		t.Error("mincore WS does not cover uffd WS")
	}
}

func TestFaaSnapSetupCostlierFaultsFewer(t *testing.T) {
	// FaaSnap's trade: bigger prefetch (setup) but at least as few residual
	// faults as REAP for the same inputs.
	fs := newFaaSnap(t, "matmul")
	rp := newManager(t, "matmul")
	if _, err := fs.Invoke(workload.III, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Invoke(workload.III, 1, 1); err != nil {
		t.Fatal(err)
	}
	fsRes, err := fs.Invoke(workload.III, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	rpRes, err := rp.Invoke(workload.III, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fsRes.Setup <= rpRes.Setup {
		t.Errorf("FaaSnap setup %v not above REAP %v", fsRes.Setup, rpRes.Setup)
	}
	if fsRes.MajorFaults > rpRes.MajorFaults {
		t.Errorf("FaaSnap faults %d exceed REAP %d", fsRes.MajorFaults, rpRes.MajorFaults)
	}
}

func TestFaaSnapSubsequentInvocationsDelegate(t *testing.T) {
	// After the first invocation FaaSnap restores exactly as REAP does:
	// prefetch the recorded (mincore) working set, demand-fault the rest.
	fs := newFaaSnap(t, "pyaes")
	first, err := fs.Invoke(workload.I, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.HasSnapshot() {
		t.Fatal("first invocation captured no snapshot")
	}
	second, err := fs.Invoke(workload.I, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if second.Setup >= first.Setup {
		t.Errorf("restore setup %v not below boot setup %v", second.Setup, first.Setup)
	}
	tr, err := fs.spec.Trace(workload.I, 2)
	if err != nil {
		t.Fatal(err)
	}
	vm := microvm.RestoreREAP(fs.cfg, fs.layout, fs.Snapshot(), fs.WorkingSet(), 1)
	vm.SetRecordTruth(false)
	want, err := vm.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if second.Setup != want.Setup || second.Exec != want.Exec || second.MajorFaults != want.MajorFaults {
		t.Errorf("second invocation (setup %v, exec %v, %d faults) differs from a REAP restore of the mincore WS (setup %v, exec %v, %d faults)",
			second.Setup, second.Exec, second.MajorFaults, want.Setup, want.Exec, want.MajorFaults)
	}
}

func TestFaaSnapInflationFactorEdgeCases(t *testing.T) {
	fs := newFaaSnap(t, "pyaes")
	if fs.InflationFactor(100) != 0 {
		t.Error("inflation factor before snapshot not 0")
	}
	if _, err := fs.Invoke(workload.I, 1, 1); err != nil {
		t.Fatal(err)
	}
	if fs.InflationFactor(0) != 0 {
		t.Error("zero true WS not handled")
	}
}

func TestFaaSnapWSClampedToGuest(t *testing.T) {
	fs := newFaaSnap(t, "compress")
	if _, err := fs.Invoke(workload.IV, 1, 1); err != nil {
		t.Fatal(err)
	}
	layout, _ := fs.spec.Layout()
	for _, r := range fs.WorkingSet() {
		if r.End() > guest.PageID(layout.TotalPages) {
			t.Fatalf("WS region %v exceeds guest %d pages", r, layout.TotalPages)
		}
	}
}

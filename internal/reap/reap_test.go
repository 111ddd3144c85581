package reap

import (
	"testing"

	"toss/internal/microvm"
	"toss/internal/workload"
)

func newManager(t *testing.T, name string) *Manager {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	m, err := NewManager(microvm.DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerRejectsBadConfig(t *testing.T) {
	cfg := microvm.DefaultConfig()
	cfg.FaultAroundPages = 0
	spec, _ := workload.ByName("pyaes")
	if _, err := NewManager(cfg, spec); err == nil {
		t.Error("bad config accepted")
	}
}

func TestFirstInvocationCapturesSnapshotAndWS(t *testing.T) {
	m := newManager(t, "json_load_dump")
	if m.HasSnapshot() {
		t.Fatal("fresh manager has snapshot")
	}
	if _, err := m.Invoke(workload.II, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !m.HasSnapshot() {
		t.Fatal("snapshot not captured")
	}
	// The userfaultfd working set is exactly the invocation's touched pages.
	tr, err := workload.ByNameMust("json_load_dump").Trace(workload.II, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.WorkingSetPages(), tr.FootprintPages(); got != want || got <= 0 {
		t.Errorf("working set %d pages, want the %d touched", got, want)
	}
}

func TestMatchedInputAvoidsFaults(t *testing.T) {
	m := newManager(t, "json_load_dump")
	if _, err := m.Invoke(workload.IV, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Same input, same seed: the WS covers everything.
	res, err := m.Invoke(workload.IV, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults != 0 {
		t.Errorf("matched input faulted %d pages", res.MajorFaults)
	}
}

func TestInputMismatchCausesFaultsAndSlowdown(t *testing.T) {
	// Snapshot with the smallest input, execute the largest: the recorded
	// WS misses most of the large input's pages (Fig. 3's worst case).
	mSmall := newManager(t, "compress")
	if _, err := mSmall.Invoke(workload.I, 1, 1); err != nil {
		t.Fatal(err)
	}
	small, err := mSmall.Invoke(workload.IV, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	mBig := newManager(t, "compress")
	if _, err := mBig.Invoke(workload.IV, 1, 1); err != nil {
		t.Fatal(err)
	}
	big, err := mBig.Invoke(workload.IV, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	if small.MajorFaults <= big.MajorFaults {
		t.Errorf("mismatched snapshot faults (%d) not worse than matched (%d)",
			small.MajorFaults, big.MajorFaults)
	}
	if small.Exec <= big.Exec {
		t.Errorf("mismatched exec %v not slower than matched %v", small.Exec, big.Exec)
	}
	// And the matched big snapshot pays for it in setup time.
	if big.Setup <= small.Setup {
		t.Errorf("big-WS setup %v not larger than small-WS setup %v", big.Setup, small.Setup)
	}
}

func TestSeedJitterCausesResidualFaults(t *testing.T) {
	// Observation #3: same input, different seeds -> slightly different
	// pages -> a few faults even with a matched snapshot input.
	m := newManager(t, "matmul")
	if _, err := m.Invoke(workload.III, 1, 1); err != nil {
		t.Fatal(err)
	}
	res, err := m.Invoke(workload.III, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults == 0 {
		t.Error("expected residual faults from allocation jitter, got none")
	}
	// But they are a small fraction of the footprint.
	tr, err := workload.ByNameMust("matmul").Trace(workload.III, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults > tr.FootprintPages()/4 {
		t.Errorf("jitter faults %d are too large a share of footprint %d",
			res.MajorFaults, tr.FootprintPages())
	}
}

func TestSetupGrowsWithWorkingSet(t *testing.T) {
	small := newManager(t, "float_operation")
	if _, err := small.Invoke(workload.I, 1, 1); err != nil {
		t.Fatal(err)
	}
	big := newManager(t, "compress")
	if _, err := big.Invoke(workload.IV, 1, 1); err != nil {
		t.Fatal(err)
	}
	rs, err := small.Invoke(workload.I, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.Invoke(workload.IV, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Setup <= rs.Setup {
		t.Errorf("setup did not grow with WS: %v (compress) vs %v (float)", rb.Setup, rs.Setup)
	}
}

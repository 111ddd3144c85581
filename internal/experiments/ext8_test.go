package experiments

import (
	"testing"

	"toss/internal/fault"
	"toss/internal/par"
)

// renderAll returns every rendering of a table for byte-level comparison.
func renderAll(t *testing.T, tab *Table) string {
	t.Helper()
	csv, err := tab.CSV()
	if err != nil {
		t.Fatal(err)
	}
	js, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return tab.String() + "\n" + csv + "\n" + js
}

// TestExt8SameFaultSeedByteIdentical pins the fault sweep's determinism:
// two fresh suites with the same base seed produce byte-identical ext8
// tables — the injected faults fire at the same (site, function, sequence)
// points every time.
func TestExt8SameFaultSeedByteIdentical(t *testing.T) {
	var out [2]string
	for i := range out {
		s := NewSuite()
		s.Iterations = 1
		tab, err := s.Run("ext8")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = renderAll(t, tab)
	}
	if out[0] != out[1] {
		t.Error("ext8 output differs across two same-seed runs")
	}
}

// TestExt8SerialVsParallelByteIdentical checks the per-cell injectors stay
// pure under the parallel engine: a 4-worker run renders the same bytes as
// a serial one. (A *suite-level* injector would force the pool serial — see
// TestPoolSerialWithSuiteInjector — but ext8 builds one injector per cell.)
func TestExt8SerialVsParallelByteIdentical(t *testing.T) {
	serial := NewSuite()
	serial.Iterations = 1
	st, err := serial.Run("ext8")
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewSuite()
	parallel.Iterations = 1
	parallel.Workers = 4
	if parallel.Pool() == par.Serial {
		t.Fatal("Workers=4 suite should not run on the serial pool")
	}
	pt, err := parallel.Run("ext8")
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(t, st) != renderAll(t, pt) {
		t.Error("ext8 output differs between serial and parallel runs")
	}
}

// TestPoolSerialWithSuiteInjector pins the engine rule the -faults flag
// relies on: a suite-level injector's sequence counters are shared state,
// so the pool must go serial.
func TestPoolSerialWithSuiteInjector(t *testing.T) {
	s := NewSuite()
	s.Workers = 8
	inj, err := fault.New(fault.UniformPlan(0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Core.VM.Faults = inj
	if s.Pool() != par.Serial {
		t.Error("suite with a fault injector attached must run serially")
	}
}

// TestExt8TossHoldsTailAdvantage holds the paper-facing claim on the
// default-iteration sweep: TOSS P99 under faults stays below lazy-restore
// DRAM's at every swept rate.
func TestExt8TossHoldsTailAdvantage(t *testing.T) { requireClaims(t, "ext8.toss_p99_below_dram") }

package sched

import (
	"testing"

	"toss/internal/simtime"
	"toss/internal/xray"
)

// TestSchedBudgetsBalance pins the scheduler-level attribution invariant:
// every record's coarse budget (queue wait + setup/resume + exec) sums
// exactly to its end-to-end latency, carries the fn/sched label (so the
// coarse and machine-level granularities aggregate separately), and marks
// its start kind.
func TestSchedBudgetsBalance(t *testing.T) {
	cfg := testConfig(MechTOSS)
	cfg.KeepAliveFastBytes = 256 << 20
	cfg.KeepAliveSlowBytes = 1 << 30
	cfg.KeepAliveTTL = 2 * simtime.Second
	col := xray.NewCollector()
	cfg.Core.VM.XRay = col
	sim, err := New(cfg, []string{"pyaes", "compress"})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := steadyTrace(t, 30*simtime.Second, 500*simtime.Millisecond, "pyaes", "compress")
	rep, err := sim.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) == 0 {
		t.Fatal("no records")
	}
	kinds := map[string]int64{}
	for i, rec := range rep.Records {
		if rec.XRay == nil {
			t.Fatalf("record %d (%s) has no budget", i, rec.Function)
		}
		if rec.XRay.Label != rec.Function+"/sched" {
			t.Fatalf("record %d label %q, want %q", i, rec.XRay.Label, rec.Function+"/sched")
		}
		if rec.XRay.Sum() != rec.Latency() {
			t.Errorf("record %d (%s %s): segments sum to %v, latency is %v",
				i, rec.Function, rec.Start, rec.XRay.Sum(), rec.Latency())
		}
		if rec.XRay.Recorded() != rec.Latency() {
			t.Errorf("record %d: recorded %v, latency %v", i, rec.XRay.Recorded(), rec.Latency())
		}
		for _, k := range []StartKind{ColdStart, WarmStart, PrewarmedStart} {
			kinds["start."+k.String()] += markCount(rec.XRay, "start."+k.String())
		}
		if rec.QueueDelay > 0 && segment(rec.XRay, xray.SegQueueWait) != rec.QueueDelay {
			t.Errorf("record %d: queue.wait %v, QueueDelay %v",
				i, segment(rec.XRay, xray.SegQueueWait), rec.QueueDelay)
		}
	}
	// Start-kind marks must tally with the records' own start kinds.
	wantKinds := map[string]int64{}
	for _, rec := range rep.Records {
		wantKinds["start."+rec.Start.String()]++
	}
	for k, n := range wantKinds {
		if kinds[k] != n {
			t.Errorf("%s marks: %d, want %d", k, kinds[k], n)
		}
	}
	// The collector also saw the scheduler budgets (plus machine budgets);
	// at least one of each granularity, all balanced.
	var coarse, fine int
	for _, b := range col.Drain() {
		if b.Sum() != b.Recorded() {
			t.Errorf("collected %s budget unbalanced: %v vs %v", b.Label, b.Sum(), b.Recorded())
		}
		if len(b.Label) > 6 && b.Label[len(b.Label)-6:] == "/sched" {
			coarse++
		} else {
			fine++
		}
	}
	if coarse == 0 || fine == 0 {
		t.Fatalf("want both granularities in the collector: coarse=%d fine=%d", coarse, fine)
	}
}

// TestSchedBudgetsDisabled confirms the nil-safety invariant at this layer:
// without a collector, records carry no budgets and nothing panics.
func TestSchedBudgetsDisabled(t *testing.T) {
	sim, err := New(testConfig(MechDRAM), []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(steadyTrace(t, 10*simtime.Second, simtime.Second, "pyaes"))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range rep.Records {
		if rec.XRay != nil {
			t.Fatalf("record %d carries a budget with attribution disabled", i)
		}
	}
}

// markCount returns the count b records for mark id (0 when absent).
func markCount(b *xray.Budget, id string) int64 {
	for _, m := range b.Marks {
		if m.ID == id {
			return m.N
		}
	}
	return 0
}

// segment returns the duration b attributes to segment id (0 when absent).
func segment(b *xray.Budget, id string) simtime.Duration {
	for _, seg := range b.Segments {
		if seg.ID == id {
			return seg.Dur
		}
	}
	return 0
}

package platform

import (
	"testing"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// checkBalanced asserts the attribution invariant on one record: the budget
// exists, is labeled, and its segments sum exactly to the record's
// end-to-end time — including retry backoff and degradation detours.
func checkBalanced(t *testing.T, rec Record, context string) {
	t.Helper()
	if rec.Err != nil {
		t.Fatalf("%s: invoke failed: %v", context, rec.Err)
	}
	if rec.XRay == nil {
		t.Fatalf("%s: successful record carries no budget", context)
	}
	if rec.XRay.Label == "" {
		t.Errorf("%s: unlabeled budget", context)
	}
	if rec.XRay.Sum() != rec.Total() {
		t.Errorf("%s: segments sum to %v but record total is %v (diff %v)",
			context, rec.XRay.Sum(), rec.Total(), rec.Total()-rec.XRay.Sum())
	}
	if rec.XRay.Recorded() != rec.Total() {
		t.Errorf("%s: budget recorded %v, record total %v",
			context, rec.XRay.Recorded(), rec.Total())
	}
}

// TestBudgetsBalanceAcrossModes drives every mode with attribution enabled
// and asserts Sum() == Total() on each record — including the TOSS phase
// transitions (profiling with DAMON overhead, snapshot capture, tiered
// restores), which exercise the Extend sites above the machine layer — and
// that every mode's first invocation charges its snapshot capture to the
// snapshot.write segment.
func TestBudgetsBalanceAcrossModes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 3
	cfg.ReprofileBudget = 0
	cfg.VM.XRay = xray.NewCollector()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		fn   string
		mode Mode
	}{
		{"pyaes", ModeTOSS},
		{"json_load_dump", ModeREAP},
		{"compress", ModeDRAM},
		{"linpack", ModeFaaSnap},
		{"matmul", ModeSlow},
	}
	for _, m := range modes {
		mustRegister(t, p, m.fn, m.mode)
	}
	for _, m := range modes {
		for i := 0; i < 30; i++ {
			lv := workload.Levels[i%len(workload.Levels)]
			rec := p.Invoke(m.fn, lv, int64(i)+1)
			checkBalanced(t, rec, m.mode.String())
			if i == 0 && segment(rec.XRay, xray.SegSnapshotWrite) == 0 {
				t.Errorf("%s: the first invocation's capture charges no snapshot.write segment", m.mode)
			}
		}
	}
	// The collector saw every machine-level budget the platform handed back.
	if len(cfg.VM.XRay.Snapshot()) == 0 {
		t.Fatal("collector observed no budgets")
	}
	for _, b := range cfg.VM.XRay.Drain() {
		if b.Sum() != b.Recorded() {
			t.Errorf("collected %s budget unbalanced: %v vs %v", b.Label, b.Sum(), b.Recorded())
		}
	}
}

// TestBudgetBalancesThroughRetry pins the backoff accounting: the retry
// backoff the policy adds to Setup before the machine runs must surface as
// the retry.backoff segment, keeping the budget balanced.
func TestBudgetBalancesThroughRetry(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteSlowOutage: {Rate: 1, MaxFires: 2},
	}})
	p.cfg.VM.XRay = xray.NewCollector()
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	checkBalanced(t, rec, "retry")
	if rec.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", rec.Retries)
	}
	wantBackoff := backoff(0) + backoff(1)
	if got := segment(rec.XRay, xray.SegRetryBackoff); got != wantBackoff {
		t.Errorf("retry.backoff segment %v, want %v", got, wantBackoff)
	}
	if got := markCount(rec.XRay, xray.MarkRetries); got != 2 {
		t.Errorf("retry.count mark %d, want 2", got)
	}
}

// TestBudgetBalancesThroughDegradation covers the detour paths: a persistent
// outage exhausts retries and serves through the lazy fallback; the budget
// must still balance and carry the degradation marks.
func TestBudgetBalancesThroughDegradation(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteSlowOutage: {Rate: 1},
	}})
	p.cfg.VM.XRay = xray.NewCollector()
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	checkBalanced(t, rec, "degrade-lazy")
	if rec.Degraded != DegradeLazy {
		t.Fatalf("Degraded = %q, want %q", rec.Degraded, DegradeLazy)
	}
	if markCount(rec.XRay, "degraded."+DegradeLazy) != 1 {
		t.Errorf("missing degraded.%s mark", DegradeLazy)
	}
	if markCount(rec.XRay, "fault.site."+rec.FaultSite) != 1 {
		t.Errorf("missing fault.site.%s mark", rec.FaultSite)
	}
	if segment(rec.XRay, xray.SegRetryBackoff) == 0 {
		t.Error("exhausted retries should leave a retry.backoff segment")
	}
}

// TestBudgetBalancesThroughResnapshot covers corruption recovery, whose
// re-capture cost is added to Setup after the machine sealed its budget —
// the snapshot.write Extend site in microvm.Capture, which the re-snapshot
// calls.
func TestBudgetBalancesThroughResnapshot(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteRestoreCorrupt: {Rate: 1, MaxFires: 1},
	}})
	p.cfg.VM.XRay = xray.NewCollector()
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	checkBalanced(t, rec, "degrade-resnapshot")
	if rec.Degraded != DegradeResnapshot {
		t.Fatalf("Degraded = %q, want %q", rec.Degraded, DegradeResnapshot)
	}
	if segment(rec.XRay, xray.SegSnapshotWrite) == 0 {
		t.Error("re-snapshot recovery should charge a snapshot.write segment")
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

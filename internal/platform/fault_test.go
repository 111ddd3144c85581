package platform

import (
	"testing"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/workload"
)

// faultPlatform builds a platform whose machines run under the given fault
// plan, with a short convergence window so TOSS reaches the tiered phase
// quickly.
func faultPlatform(t *testing.T, plan fault.Plan) *Platform {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 3
	cfg.ReprofileBudget = 0
	inj, err := fault.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VM.Faults = inj
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// warmToTiered drives a TOSS function through profiling to the tiered
// phase. The restore-time fault sites (outage, corruption, staleness) are
// only queried in PhaseTiered, so warm-up is unaffected by such plans.
func warmToTiered(t *testing.T, p *Platform, fn string) {
	t.Helper()
	for i := 0; i < 400; i++ {
		lv := workload.Levels[i%len(workload.Levels)]
		if rec := p.Invoke(fn, lv, int64(i)+100); rec.Err != nil {
			t.Fatalf("warmup invoke %d: %v", i, rec.Err)
		}
		st, err := p.Stats(fn)
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase == core.PhaseTiered {
			return
		}
	}
	t.Fatalf("%s did not reach the tiered phase", fn)
}

func TestTOSSRetryRecoversTransientOutage(t *testing.T) {
	// The outage fires twice then stops; the default policy's two retries
	// are exactly enough to serve the request on the primary path.
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteSlowOutage: {Rate: 1, MaxFires: 2},
	}})
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	if rec.Err != nil {
		t.Fatalf("invoke failed despite retry budget: %v", rec.Err)
	}
	if rec.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rec.Retries)
	}
	if rec.Degraded != "" {
		t.Errorf("Degraded = %q, want primary-path success", rec.Degraded)
	}
	if wait := backoff(0) + backoff(1); rec.Setup < wait {
		t.Errorf("Setup %v does not include the %v retry backoff", rec.Setup, wait)
	}
}

func TestBackoffCapped(t *testing.T) {
	if got := backoff(0); got != backoffBase {
		t.Errorf("backoff(0) = %v, want %v", got, backoffBase)
	}
	if got := backoff(1); got != 2*backoffBase {
		t.Errorf("backoff(1) = %v, want %v", got, 2*backoffBase)
	}
	if got := backoff(10); got != backoffCap {
		t.Errorf("backoff(10) = %v, want cap %v", got, backoffCap)
	}
	if got := backoff(1000); got != backoffCap {
		t.Errorf("backoff(1000) = %v, want cap %v (shift must clamp)", got, backoffCap)
	}
}

func TestTOSSDegradesToLazyOnPersistentOutage(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteSlowOutage: {Rate: 1},
	}})
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	if rec.Err != nil {
		t.Fatalf("degradation should serve the request: %v", rec.Err)
	}
	if rec.Degraded != DegradeLazy {
		t.Errorf("Degraded = %q, want %q", rec.Degraded, DegradeLazy)
	}
	if rec.FaultSite != string(fault.SiteSlowOutage) {
		t.Errorf("FaultSite = %q, want %q", rec.FaultSite, fault.SiteSlowOutage)
	}
	if rec.Retries != maxRetries {
		t.Errorf("Retries = %d, want the full budget %d", rec.Retries, maxRetries)
	}
	// The lazy fallback serves without touching the tiers; the phase is
	// untouched.
	if st, _ := p.Stats("json_load_dump"); st.Phase != core.PhaseTiered {
		t.Errorf("phase = %v after lazy fallback, want tiered", st.Phase)
	}
}

func TestTOSSCorruptionResnapshots(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteRestoreCorrupt: {Rate: 1, MaxFires: 1},
	}})
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	if rec.Err != nil {
		t.Fatalf("resnapshot recovery should serve the request: %v", rec.Err)
	}
	if rec.Degraded != DegradeResnapshot {
		t.Errorf("Degraded = %q, want %q", rec.Degraded, DegradeResnapshot)
	}
	if rec.Retries != 0 {
		t.Errorf("Retries = %d; corruption is not retryable", rec.Retries)
	}
	// The rebuilt snapshot serves the next invocation cleanly, still tiered.
	next := p.Invoke("json_load_dump", workload.IV, 8)
	if next.Err != nil || next.Degraded != "" {
		t.Errorf("post-recovery invoke: err=%v degraded=%q, want clean", next.Err, next.Degraded)
	}
	if next.Phase != core.PhaseTiered {
		t.Errorf("post-recovery phase = %v, want tiered", next.Phase)
	}
}

func TestTOSSStaleProfileReprofiles(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteProfileStale: {Rate: 1, MaxFires: 1},
	}})
	mustRegister(t, p, "json_load_dump", ModeTOSS)
	warmToTiered(t, p, "json_load_dump")

	rec := p.Invoke("json_load_dump", workload.IV, 7)
	if rec.Err != nil {
		t.Fatalf("reprofile degradation should serve the request: %v", rec.Err)
	}
	if rec.Degraded != DegradeReprofile {
		t.Errorf("Degraded = %q, want %q", rec.Degraded, DegradeReprofile)
	}
	// The function is demoted to profiling and converges back to tiered.
	if st, _ := p.Stats("json_load_dump"); st.Phase != core.PhaseProfiling {
		t.Errorf("phase = %v after stale profile, want profiling", st.Phase)
	}
	warmToTiered(t, p, "json_load_dump")
}

func TestREAPPrefetchFailureFallsBackToLazy(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SitePrefetch: {Rate: 1},
	}})
	mustRegister(t, p, "json_load_dump", ModeREAP)
	// First invocation boots and snapshots — no prefetch to fail.
	if rec := p.Invoke("json_load_dump", workload.IV, 7); rec.Err != nil || rec.Degraded != "" {
		t.Fatalf("cold invoke: err=%v degraded=%q", rec.Err, rec.Degraded)
	}
	rec := p.Invoke("json_load_dump", workload.IV, 8)
	if rec.Err != nil {
		t.Fatalf("prefetch fallback should serve the request: %v", rec.Err)
	}
	if rec.Degraded != DegradeLazy {
		t.Errorf("Degraded = %q, want %q", rec.Degraded, DegradeLazy)
	}
	if rec.FaultSite != string(fault.SitePrefetch) {
		t.Errorf("FaultSite = %q, want %q", rec.FaultSite, fault.SitePrefetch)
	}
	// A dead prefetch is not retried: the snapshot is intact.
	if rec.Retries != 0 {
		t.Errorf("Retries = %d, want 0", rec.Retries)
	}
}

// TestPrefetchingModesAskOnlyPrefetch pins REAP's and FaaSnap's restore-time
// fault sites: a plan that fires every other restore-time site on every
// query leaves their restores clean.
func TestPrefetchingModesAskOnlyPrefetch(t *testing.T) {
	for _, mode := range []Mode{ModeREAP, ModeFaaSnap} {
		p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
			fault.SiteSlowOutage:     {Rate: 1},
			fault.SiteRestoreCorrupt: {Rate: 1},
			fault.SiteProfileStale:   {Rate: 1},
		}})
		mustRegister(t, p, "json_load_dump", mode)
		for seed := int64(7); seed < 10; seed++ {
			rec := p.Invoke("json_load_dump", workload.IV, seed)
			if rec.Err != nil || rec.Degraded != "" || rec.Retries != 0 {
				t.Errorf("%v seed %d: err=%v degraded=%q retries=%d, want a clean serve",
					mode, seed, rec.Err, rec.Degraded, rec.Retries)
			}
		}
	}
}

func TestSlowModeOutageFallsBackToLazy(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteSlowOutage: {Rate: 1},
	}})
	mustRegister(t, p, "json_load_dump", ModeSlow)
	if rec := p.Invoke("json_load_dump", workload.IV, 7); rec.Err != nil {
		t.Fatalf("first (capture) invoke: %v", rec.Err)
	}
	rec := p.Invoke("json_load_dump", workload.IV, 8)
	if rec.Err != nil {
		t.Fatalf("outage fallback should serve the request: %v", rec.Err)
	}
	if rec.Degraded != DegradeLazy {
		t.Errorf("Degraded = %q, want %q", rec.Degraded, DegradeLazy)
	}
}

func TestDRAMCorruptionResnapshots(t *testing.T) {
	p := faultPlatform(t, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteRestoreCorrupt: {Rate: 1, MaxFires: 1},
	}})
	mustRegister(t, p, "json_load_dump", ModeDRAM)
	if rec := p.Invoke("json_load_dump", workload.IV, 7); rec.Err != nil {
		t.Fatalf("first (capture) invoke: %v", rec.Err)
	}
	rec := p.Invoke("json_load_dump", workload.IV, 8)
	if rec.Err != nil {
		t.Fatalf("resnapshot recovery should serve the request: %v", rec.Err)
	}
	if rec.Degraded != DegradeResnapshot {
		t.Errorf("Degraded = %q, want %q", rec.Degraded, DegradeResnapshot)
	}
	if next := p.Invoke("json_load_dump", workload.IV, 9); next.Err != nil || next.Degraded != "" {
		t.Errorf("post-recovery invoke: err=%v degraded=%q, want clean", next.Err, next.Degraded)
	}
}

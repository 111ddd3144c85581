package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/workload"
)

// testConfig returns a config with a short convergence window so tests
// don't need 100 invocations.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.ConvergenceWindow = 3
	cfg.ReprofileBudget = 0
	return cfg
}

func spec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return s
}

// profileUntilConverged runs Converge at seed 1 and returns its Steps I-II
// state.
func profileUntilConverged(t *testing.T, cfg Config, s *workload.Spec, levels []workload.Level) *ProfileData {
	t.Helper()
	ctl, err := Converge(cfg, s, levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ctl.ProfileData()
}

// TestConvergeBoundsProfiling pins Converge's failure paths: no input
// levels, and a convergence window no run can fill within the
// profiling-invocation cap.
func TestConvergeBoundsProfiling(t *testing.T) {
	s := spec(t, "float_operation")
	if _, err := Converge(DefaultConfig(), s, nil, 1); err == nil {
		t.Error("Converge with no levels succeeded")
	}
	cfg := DefaultConfig()
	cfg.ConvergenceWindow = MaxProfilingInvocations + 1
	cfg.ReprofileBudget = 0
	_, err := Converge(cfg, s, []workload.Level{workload.I}, 1)
	if err == nil || !strings.Contains(err.Error(), "did not converge in 400 profiling invocations") {
		t.Errorf("Converge past the cap: err = %v", err)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Bins = 0 },
		func(c *Config) { c.MergeDelta = -1 },
		func(c *Config) { c.ConvergenceWindow = 0 },
		func(c *Config) { c.SlowdownThreshold = -0.1 },
		func(c *Config) { c.SlowdownThreshold = math.NaN() },
		func(c *Config) { c.ReprofileBudget = -1 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseInitial.String() != "initial" || PhaseProfiling.String() != "profiling" ||
		PhaseTiered.String() != "tiered" || Phase(9).String() == "" {
		t.Error("Phase.String wrong")
	}
}

func TestNewProfileDataCapturesSnapshot(t *testing.T) {
	cfg := testConfig()
	pd, res, err := NewProfileData(cfg, spec(t, "pyaes"), workload.II, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Single == nil || len(pd.Single.Memory.Pages) == 0 {
		t.Fatal("no single-tier snapshot captured")
	}
	if res.Setup <= cfg.VM.BootTime {
		t.Error("initial setup should include boot + snapshot capture")
	}
	if pd.Profiled != 0 {
		t.Error("initial execution counted as profiled")
	}
}

func TestProfileInvocationFoldsAndTracksLargest(t *testing.T) {
	cfg := testConfig()
	pd, _, err := NewProfileData(cfg, spec(t, "pyaes"), workload.I, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, changed, err := pd.ProfileInvocation(cfg, workload.I, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("first profiling invocation reported no pattern change")
	}
	if pd.Profiled != 1 {
		t.Errorf("Profiled = %d", pd.Profiled)
	}
	smallExec := pd.Largest.Exec
	if _, _, err := pd.ProfileInvocation(cfg, workload.IV, 3, 1); err != nil {
		t.Fatal(err)
	}
	if pd.Largest.Level != workload.IV || pd.Largest.Exec <= smallExec {
		t.Errorf("largest input not updated: %+v", pd.Largest)
	}
}

func TestAnalyzeRequiresProfiling(t *testing.T) {
	cfg := testConfig()
	pd, _, err := NewProfileData(cfg, spec(t, "pyaes"), workload.I, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(cfg, pd); err == nil {
		t.Error("Analyze accepted unprofiled data")
	}
}

func TestAnalyzeProducesCoherentCurve(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "json_load_dump")
	pd := profileUntilConverged(t, cfg, s, workload.Levels)
	a, err := Analyze(cfg, pd)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Curve) != len(a.Bins)+1 {
		t.Fatalf("curve has %d points for %d bins", len(a.Curve), len(a.Bins))
	}
	if len(a.Bins) == 0 || len(a.Bins) > cfg.Bins {
		t.Fatalf("bin count %d out of (0,%d]", len(a.Bins), cfg.Bins)
	}
	// Slowdown is non-decreasing along the sweep (within tiny noise).
	for k := 1; k < len(a.Curve); k++ {
		if a.Curve[k].Slowdown < a.Curve[k-1].Slowdown-0.02 {
			t.Errorf("slowdown decreased at k=%d: %v -> %v",
				k, a.Curve[k-1].Slowdown, a.Curve[k].Slowdown)
		}
		if a.Curve[k].SlowPages <= a.Curve[k-1].SlowPages {
			t.Errorf("slow pages not increasing at k=%d", k)
		}
	}
	// The chosen point is the curve's cost minimum.
	for _, p := range a.Curve {
		if p.NormCost < a.MinCost()-1e-12 {
			t.Errorf("chosen cost %v not minimal (found %v at k=%d)",
				a.MinCost(), p.NormCost, p.BinsOffloaded)
		}
	}
	// Cost must beat DRAM-only and respect the optimum bound.
	if a.MinCost() >= 1 || a.MinCost() < cfg.Cost.Optimal()-1e-9 {
		t.Errorf("MinCost = %v, want in [0.4, 1)", a.MinCost())
	}
	if a.SlowShare() <= 0 || a.SlowShare() > 1 {
		t.Errorf("SlowShare = %v", a.SlowShare())
	}
	if a.ProfilingOverhead <= float64(pd.Profiled) {
		t.Errorf("ProfilingOverhead %v must exceed profiled invocations %d",
			a.ProfilingOverhead, pd.Profiled)
	}
}

func TestAnalyzePlacementMatchesChosenK(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "pyaes")
	pd := profileUntilConverged(t, cfg, s, workload.Levels)
	a, err := Analyze(cfg, pd)
	if err != nil {
		t.Fatal(err)
	}
	var slowPages int64
	for _, r := range a.Placement.Regions(mem.Slow) {
		slowPages += r.Pages
	}
	if got := slowPages; got != a.Curve[a.ChosenK].SlowPages {
		t.Errorf("placement slow pages %d != curve %d", got, a.Curve[a.ChosenK].SlowPages)
	}
	// Zero-accessed pages are always slow.
	for _, r := range a.ZeroSlow {
		if a.Placement.LevelOf(r.Start) != mem.Slow {
			t.Errorf("zero region %v not slow", r)
		}
	}
}

func TestSlowdownThresholdBoundsChoice(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "pagerank")
	// Profile quickly on the smallest input to keep the test fast.
	pd := profileUntilConverged(t, cfg, s, []workload.Level{workload.I})

	unbounded, err := Analyze(cfg, pd)
	if err != nil {
		t.Fatal(err)
	}
	cfgBounded := cfg
	cfgBounded.SlowdownThreshold = 0.02
	bounded, err := Analyze(cfgBounded, pd)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.MinCostSlowdown()-1 > 0.02+1e-9 {
		t.Errorf("threshold violated: slowdown %v", bounded.MinCostSlowdown())
	}
	if bounded.ChosenK > unbounded.ChosenK {
		t.Errorf("bounded choice offloads more bins (%d) than unbounded (%d)",
			bounded.ChosenK, unbounded.ChosenK)
	}
	if bounded.MinCost() < unbounded.MinCost()-1e-9 {
		t.Error("bounded cost cannot beat unbounded minimum")
	}
}

func TestBuildSnapshotRoundTripsPlacement(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "pyaes")
	pd := profileUntilConverged(t, cfg, s, workload.Levels)
	a, err := Analyze(cfg, pd)
	if err != nil {
		t.Fatal(err)
	}
	ts := BuildSnapshot(pd, a)
	if ts.Function != s.Name {
		t.Errorf("snapshot function = %q", ts.Function)
	}
	// Every resident page's tier in the snapshot matches the placement:
	// the slow image holds exactly the resident pages placed slow.
	var wantSlow []guest.Region
	for _, r := range pd.Single.Memory.Regions {
		for _, sg := range a.Placement.Segments(r) {
			if sg.Level == mem.Slow {
				wantSlow = append(wantSlow, sg.Region)
			}
		}
	}
	if got := ts.SlowMem.Regions; !slices.Equal(got, guest.NormalizeRegions(wantSlow)) {
		t.Fatalf("slow image holds %v, placement puts %v slow", got, wantSlow)
	}
	if len(ts.FastMem.Pages)+len(ts.SlowMem.Pages) != len(pd.Single.Memory.Pages) {
		t.Fatalf("tier images hold %d+%d pages of %d resident",
			len(ts.FastMem.Pages), len(ts.SlowMem.Pages), len(pd.Single.Memory.Pages))
	}
}

func TestControllerLifecycle(t *testing.T) {
	cfg := testConfig()
	c, err := NewController(cfg, spec(t, "pyaes"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Phase() != PhaseInitial {
		t.Fatal("fresh controller not in initial phase")
	}
	res, err := c.Invoke(workload.II, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase != PhaseInitial || c.Phase() != PhaseProfiling {
		t.Fatalf("after first invoke: res.Phase=%v c.Phase=%v", res.Phase, c.Phase())
	}
	converged := false
	for i := 0; i < 300 && !converged; i++ {
		lv := workload.Levels[i%4]
		res, err = c.Invoke(lv, int64(i+10), 1)
		if err != nil {
			t.Fatal(err)
		}
		converged = res.Converged
	}
	if !converged {
		t.Fatal("controller did not converge")
	}
	if c.Phase() != PhaseTiered || c.Analysis() == nil || c.Tiered() == nil {
		t.Fatal("converged controller missing analysis/snapshot")
	}
	// Tiered invocations now serve with constant small setup.
	r1, err := c.Invoke(workload.IV, 999, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Phase != PhaseTiered {
		t.Errorf("phase = %v", r1.Phase)
	}
	wantSetup := cfg.VM.VMLoadBase + cfg.VM.MmapCost.Scale(float64(c.Tiered().Regions()))
	if r1.Setup != wantSetup {
		t.Errorf("tiered setup = %v, want %v", r1.Setup, wantSetup)
	}
}

func TestControllerRejectsNilSpec(t *testing.T) {
	if _, err := NewController(testConfig(), nil); err == nil {
		t.Error("nil spec accepted")
	}
}

func TestControllerReprofileTrigger(t *testing.T) {
	cfg := testConfig()
	// A generous budget so Eq. 4 trips after few tiered invocations.
	cfg.ReprofileBudget = 10
	c, err := NewController(cfg, spec(t, "pyaes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(workload.I, 1, 1); err != nil {
		t.Fatal(err)
	}
	converged := false
	for i := 0; i < 300 && !converged; i++ {
		res, err := c.Invoke(workload.I, int64(i+10), 1)
		if err != nil {
			t.Fatal(err)
		}
		converged = res.Converged
	}
	if !converged {
		t.Fatal("no convergence")
	}
	tripped := false
	for i := 0; i < 50 && !tripped; i++ {
		// Larger input than profiling saw -> accelerating factor grows.
		res, err := c.Invoke(workload.IV, int64(1000+i), 1)
		if err != nil {
			t.Fatal(err)
		}
		tripped = res.ReprofileTriggered
	}
	if !tripped {
		t.Fatal("re-profiling never triggered despite huge budget")
	}
	if c.Phase() != PhaseProfiling {
		t.Errorf("phase after trigger = %v, want profiling", c.Phase())
	}
	if c.Reprofiles() != 1 {
		t.Errorf("Reprofiles = %d", c.Reprofiles())
	}
}

func TestReconvergesAfterReprofile(t *testing.T) {
	cfg := testConfig()
	cfg.ReprofileBudget = 10 // trip quickly
	c, err := NewController(cfg, spec(t, "pyaes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(workload.I, 1, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; c.Phase() != PhaseTiered; i++ {
		if i > 300 {
			t.Fatal("no convergence")
		}
		if _, err := c.Invoke(workload.I, int64(i+10), 1); err != nil {
			t.Fatal(err)
		}
	}
	first := c.Tiered()
	// Trip re-profiling with oversized inputs, then reconverge.
	for i := 0; c.Phase() == PhaseTiered; i++ {
		if i > 100 {
			t.Fatal("reprofile never tripped")
		}
		if _, err := c.Invoke(workload.IV, int64(1000+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; c.Phase() != PhaseTiered; i++ {
		if i > 400 {
			t.Fatal("no re-convergence")
		}
		if _, err := c.Invoke(workload.Levels[i%4], int64(2000+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if c.Reprofiles() != 1 {
		t.Errorf("Reprofiles = %d, want 1", c.Reprofiles())
	}
	// Re-convergence builds a new generation from the enhanced profile.
	if c.Tiered() == nil || c.Tiered() == first {
		t.Error("re-convergence kept the first generation's tiered snapshot")
	}
}

func TestChooseK(t *testing.T) {
	curve := []CurvePoint{
		{BinsOffloaded: 0, Slowdown: 1.00, NormCost: 0.90},
		{BinsOffloaded: 1, Slowdown: 1.02, NormCost: 0.70},
		{BinsOffloaded: 2, Slowdown: 1.10, NormCost: 0.55},
		{BinsOffloaded: 3, Slowdown: 1.60, NormCost: 0.75},
	}
	if got := chooseK(curve, 0); got != 2 {
		t.Errorf("unbounded chooseK = %d, want 2", got)
	}
	if got := chooseK(curve, 0.05); got != 1 {
		t.Errorf("bounded chooseK = %d, want 1", got)
	}
	if got := chooseK(curve, 0.001); got != 0 {
		t.Errorf("tight-bounded chooseK = %d, want 0", got)
	}
}

func TestSlowdownHelper(t *testing.T) {
	if got := slowdown(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("slowdown = %v", got)
	}
	if got := slowdown(90, 100); got != 0 {
		t.Errorf("negative slowdown not clamped: %v", got)
	}
	if got := slowdown(10, 0); got != 0 {
		t.Errorf("zero baseline: %v", got)
	}
}

// TestAnalyzeInvariants checks the structural invariants of Step III for
// several functions: bins partition the accessed pages exactly (no overlap
// with each other or the zero set, full coverage of the guest), curve costs
// recompute from the cost model, and the full-slow point covers the guest.
func TestAnalyzeInvariants(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{"pyaes", "json_load_dump", "matmul"} {
		s := spec(t, name)
		pd := profileUntilConverged(t, cfg, s, workload.Levels)
		a, err := Analyze(cfg, pd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		covered := make([]int, a.GuestPages)
		for _, r := range a.ZeroSlow {
			for p := r.Start; p < r.End(); p++ {
				covered[p]++
			}
		}
		var binPages int64
		for _, bin := range a.Bins {
			var got int64
			for _, r := range bin.Regions {
				for p := r.Start; p < r.End(); p++ {
					covered[p]++
				}
				got += r.Pages
			}
			if got != bin.Pages {
				t.Errorf("%s: bin pages %d != region sum %d", name, bin.Pages, got)
			}
			binPages += bin.Pages
		}
		for p, n := range covered {
			if n != 1 {
				t.Fatalf("%s: page %d covered %d times (zero set + bins must partition the guest)", name, p, n)
			}
		}
		if a.ZeroSlowPages+binPages != a.GuestPages {
			t.Errorf("%s: zero (%d) + bins (%d) != guest (%d)", name, a.ZeroSlowPages, binPages, a.GuestPages)
		}
		// Curve costs recompute from the model.
		for _, pt := range a.Curve {
			want := cfg.Cost.Normalized(pt.Slowdown, pt.SlowPages, a.GuestPages)
			if diff := pt.NormCost - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: curve k=%d cost %v, model says %v", name, pt.BinsOffloaded, pt.NormCost, want)
			}
		}
		// The final point offloads the whole guest.
		if last := a.Curve[len(a.Curve)-1]; last.SlowPages != a.GuestPages {
			t.Errorf("%s: full-slow point covers %d of %d pages", name, last.SlowPages, a.GuestPages)
		}
	}
}

func TestZeroSlowCoversUntouchedGuest(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "float_operation")
	pd := profileUntilConverged(t, cfg, s, []workload.Level{workload.I, workload.II})
	a, err := Analyze(cfg, pd)
	if err != nil {
		t.Fatal(err)
	}
	// float_operation touches very little of its 128 MB guest: the zero
	// set must dominate.
	share := float64(a.ZeroSlowPages) / float64(a.GuestPages)
	if share < 0.5 {
		t.Errorf("zero-slow share = %.2f, want > 0.5", share)
	}
	// And no zero page may fall inside any bin.
	for _, b := range a.Bins {
		for _, br := range b.Regions {
			for _, zr := range a.ZeroSlow {
				if br.Start < zr.End() && zr.Start < br.End() {
					t.Fatalf("bin region %v overlaps zero region %v", br, zr)
				}
			}
		}
	}
}

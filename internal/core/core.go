// Package core implements TOSS — Tiering of Serverless Snapshots — the
// paper's primary contribution (§IV, §V). TOSS turns a function's snapshot
// into a two-tier snapshot in four steps:
//
//	Step I    Initial execution: run DRAM-only, capture a single-tier
//	          snapshot (§V-A).
//	Step II   Memory profiling: run subsequent invocations under DAMON and
//	          max-merge each invocation's access pattern into a unified
//	          pattern file until it stabilizes for N invocations (§V-B).
//	Step III  Profiling analysis: move zero-accessed pages to the slow
//	          tier, bin-pack the remaining regions into N bins of equal
//	          access counts, profile the bins on the largest recorded
//	          input, and pick the fast/slow split that minimizes the
//	          memory-cost formula, optionally under a slowdown bound (§V-C).
//	Step IV   Snapshot tiering: split the memory file between the tiers
//	          and write the memory-layout file, merging adjacent regions
//	          that land in the same tier (§V-D, §V-F).
//
// A re-profiling trigger (Eqs. 2-4, §V-E) sends the function back to Step II
// when production invocations drift past what profiling saw.
//
// The package separates the pure pipeline (NewProfileData, ProfileInvocation,
// Analyze, BuildSnapshot) from the Controller state machine, so experiments
// can drive the pipeline with controlled input mixes.
package core

import (
	"fmt"
	"sort"

	"toss/internal/binpack"
	"toss/internal/costmodel"
	"toss/internal/damon"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/wstrack"
	"toss/internal/xray"
)

// Config collects the TOSS prototype's knobs, defaulting to the paper's
// values.
type Config struct {
	VM    microvm.Config
	Damon damon.Config
	Cost  costmodel.Model
	// Bins is the number of equal-access bins (10 in the prototype).
	Bins int
	// MergeDelta is the access-count merging threshold: adjacent regions
	// whose counts differ by fewer accesses merge (100 in the prototype).
	MergeDelta int64
	// ConvergenceWindow is the number of consecutive invocations the
	// unified pattern must stay unchanged before profiling ends (N=100).
	ConvergenceWindow int
	// SlowdownThreshold, when positive, bounds the accepted slowdown while
	// minimizing cost (e.g. 0.10 allows at most 10% slowdown).
	SlowdownThreshold float64
	// ReprofileBudget is the profiling-overhead budget fraction of Eq. 4
	// (0.0001 bounds profiling to 0.01% of invocations); 0 disables
	// re-profiling.
	ReprofileBudget float64
}

// DefaultConfig returns the paper's prototype configuration.
func DefaultConfig() Config {
	return Config{
		VM:                microvm.DefaultConfig(),
		Damon:             damon.DefaultConfig(),
		Cost:              costmodel.Default(),
		Bins:              10,
		MergeDelta:        100,
		ConvergenceWindow: 100,
		SlowdownThreshold: 0,
		ReprofileBudget:   0.0001,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.VM.Validate(); err != nil {
		return err
	}
	if err := c.Damon.Validate(); err != nil {
		return err
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.Bins < 1 {
		return fmt.Errorf("core: Bins %d < 1", c.Bins)
	}
	if c.MergeDelta < 0 {
		return fmt.Errorf("core: negative MergeDelta")
	}
	if c.ConvergenceWindow < 1 {
		return fmt.Errorf("core: ConvergenceWindow %d < 1", c.ConvergenceWindow)
	}
	if !(c.SlowdownThreshold >= 0) {
		return fmt.Errorf("core: SlowdownThreshold %v is negative or NaN", c.SlowdownThreshold)
	}
	if c.ReprofileBudget < 0 {
		return fmt.Errorf("core: negative ReprofileBudget")
	}
	return nil
}

// LargestInput identifies the longest-running invocation observed during
// profiling — the representative input for bin profiling (§V-C).
type LargestInput struct {
	Level workload.Level
	Seed  int64
	Exec  simtime.Duration
}

// ProfileData accumulates Steps I and II for one function.
type ProfileData struct {
	Spec   *workload.Spec
	Layout guest.Layout
	// Single is the single-tier snapshot from the initial execution.
	Single *snapshot.Single
	// Unified is the max-merged access pattern file.
	Unified *damon.Unified
	// Profiled counts invocations run with DAMON attached.
	Profiled int
	// Largest is the longest invocation seen while profiling.
	Largest LargestInput
	// damonSeq seeds DAMON's sampling noise differently per invocation.
	damonSeq int64
}

// NewProfileData performs Step I: the initial DRAM-only execution and
// single-tier snapshot capture. The returned result carries the initial
// invocation's timing (boot, not restore).
func NewProfileData(cfg Config, spec *workload.Spec, lv workload.Level, seed int64) (*ProfileData, microvm.Result, error) {
	return NewProfileDataTraced(cfg, spec, lv, seed, nil)
}

// NewProfileDataTraced is NewProfileData with an optional telemetry span:
// boot, execution, and the snapshot capture become children of `span` on the
// invocation's virtual timeline.
func NewProfileDataTraced(cfg Config, spec *workload.Spec, lv workload.Level, seed int64, span *telemetry.Span) (*ProfileData, microvm.Result, error) {
	layout, err := spec.Layout()
	if err != nil {
		return nil, microvm.Result{}, err
	}
	tr, err := spec.Trace(lv, seed)
	if err != nil {
		return nil, microvm.Result{}, err
	}
	res, single, err := microvm.Capture(cfg.VM, layout, spec.Name, tr, span)
	if err != nil {
		return nil, microvm.Result{}, fmt.Errorf("core: initial execution: %w", err)
	}
	return &ProfileData{
		Spec:    spec,
		Layout:  layout,
		Single:  single,
		Unified: damon.NewUnified(),
	}, res, nil
}

// ProfileInvocation performs one Step II invocation: restore the single-tier
// snapshot, run with DAMON attached (paying its overhead), fold the observed
// pattern into the unified file, and report whether the unified pattern
// changed. The config's flight recorder, if any, audits the pattern against
// the run's ground-truth access counts.
func (pd *ProfileData) ProfileInvocation(cfg Config, lv workload.Level, seed int64, concurrency int) (microvm.Result, bool, error) {
	return pd.ProfileInvocationTraced(cfg, lv, seed, concurrency, nil)
}

// ProfileInvocationTraced is ProfileInvocation with an optional telemetry
// span: restore, execution, the DAMON sampling window, and the fold into the
// unified pattern become children of `span`.
func (pd *ProfileData) ProfileInvocationTraced(cfg Config, lv workload.Level, seed int64, concurrency int, span *telemetry.Span) (microvm.Result, bool, error) {
	tr, err := pd.Spec.Trace(lv, seed)
	if err != nil {
		return microvm.Result{}, false, err
	}
	vm := microvm.RestoreLazy(cfg.VM, pd.Layout, pd.Single, concurrency)
	res, err := vm.RunTraced(tr, span)
	if err != nil {
		return microvm.Result{}, false, fmt.Errorf("core: profiling invocation: %w", err)
	}
	// DAMON's measured ~3% overhead applies while profiling is attached.
	orig := res.Exec
	res.Exec = res.Exec.Scale(cfg.Damon.OverheadFactor())
	res.Budget.Extend(xray.SegProfilingDAMON, res.Exec-orig)

	pd.damonSeq++
	pattern := cfg.Damon.ProfileTraced(res.Truth, pd.Layout.TotalPages, seed^pd.damonSeq,
		span, res.Setup, res.Setup+res.Exec)
	changed := pd.Unified.Fold(pattern)
	if span != nil {
		span.Child(telemetry.KindDAMONAggregate, "unified-fold", res.Setup+res.Exec,
			telemetry.I64("records", int64(len(pattern.Records))),
			telemetry.Str("changed", fmt.Sprintf("%t", changed))).
			EndAt(res.Setup + res.Exec)
	}
	pd.Profiled++
	cfg.VM.Recorder.AuditDAMON(pd.Spec.Name, pd.Profiled, pattern, res.Truth)
	if res.Exec > pd.Largest.Exec {
		pd.Largest = LargestInput{Level: lv, Seed: seed, Exec: res.Exec}
	}
	return res, changed, nil
}

// Bin is one equal-access bin of memory regions plus its measured behaviour.
type Bin struct {
	// Regions are the guest regions assigned to the bin.
	Regions []guest.Region
	// Pages is the total page count.
	Pages int64
	// OwnSlowdown is the slowdown of offloading only this bin (vs. the
	// all-bins-fast baseline), from the individual profiling pass.
	OwnSlowdown float64
}

// CurvePoint is one configuration of the incremental offload sweep.
type CurvePoint struct {
	// BinsOffloaded is k: the first k bins (in offload order) are slow.
	BinsOffloaded int
	// Slowdown is execution time relative to the all-bins-fast baseline.
	Slowdown float64
	// SlowPages counts all slow-tier pages (zero pages + offloaded bins).
	SlowPages int64
	// NormCost is Eq. 1 normalized to the DRAM-only configuration.
	NormCost float64
}

// Analysis is the outcome of Step III.
type Analysis struct {
	GuestPages int64
	// ZeroSlow are the zero-accessed regions moved to the slow tier first.
	ZeroSlow      []guest.Region
	ZeroSlowPages int64
	// Bins are the equal-access bins in offload order (most cost-efficient
	// first).
	Bins []Bin
	// Curve holds k = 0..len(Bins) configurations.
	Curve []CurvePoint
	// ChosenK is the selected number of offloaded bins.
	ChosenK int
	// Placement is the selected two-level page placement.
	Placement *mem.MultiPlacement
	// FullSlowSlowdown is the slowdown with every bin offloaded.
	FullSlowSlowdown float64
	// ProfilingOverhead is Eq. 2: profiled invocations plus the cost of
	// the bin-profiling sweep in invocation-equivalents.
	ProfilingOverhead float64
}

// MinCost returns the chosen configuration's normalized memory cost.
func (a *Analysis) MinCost() float64 { return a.Curve[a.ChosenK].NormCost }

// MinCostSlowdown returns the chosen configuration's slowdown.
func (a *Analysis) MinCostSlowdown() float64 { return a.Curve[a.ChosenK].Slowdown }

// SlowShare returns the chosen configuration's slow-tier fraction.
func (a *Analysis) SlowShare() float64 {
	return float64(a.Curve[a.ChosenK].SlowPages) / float64(a.GuestPages)
}

// HeatRegion is one profiled region with its observed per-page access heat —
// the profile-side input of the migration engine (TIERS.md).
type HeatRegion struct {
	Region guest.Region
	// PerPage is DAMON's nr_accesses per page over the profiled window.
	PerPage float64
}

// HeatRegions flattens the unified DAMON pattern into per-region heat for
// seeding internal/migrate's EWMA (Engine.Touch): each merged record's
// access count becomes the per-page heat of its region. mergeDelta is the
// same access-count merging threshold Analyze uses.
func (pd *ProfileData) HeatRegions(mergeDelta int64) []HeatRegion {
	recs := pd.Unified.Regions(mergeDelta)
	out := make([]HeatRegion, len(recs))
	for i, r := range recs {
		out[i] = HeatRegion{Region: r.Region, PerPage: float64(r.NrAccesses)}
	}
	return out
}

// Analyze performs Step III on profiled data.
func Analyze(cfg Config, pd *ProfileData) (*Analysis, error) {
	if pd.Profiled == 0 {
		return nil, fmt.Errorf("core: Analyze before any profiling invocation")
	}
	guestPages := pd.Layout.TotalPages
	a := &Analysis{GuestPages: guestPages}

	// 1. Access-count merging of the unified pattern into regions.
	records := pd.Unified.Regions(cfg.MergeDelta)

	// 2. Zero-accessed pages (anything outside the unified pattern,
	// including resident-but-unaccessed snapshot pages) go slow first.
	accessed := make([]guest.Region, 0, len(records))
	for _, r := range records {
		accessed = append(accessed, r.Region)
	}
	a.ZeroSlow = wstrack.Missing([]guest.Region{{Start: 0, Pages: guestPages}}, accessed)
	a.ZeroSlowPages = guest.TotalPages(a.ZeroSlow)

	// 3. Bin-pack accessed regions into equal-access bins.
	bins, err := packBins(records, cfg.Bins)
	if err != nil {
		return nil, err
	}

	// 4. Bin profiling on the representative (largest) input.
	tr, err := pd.Spec.Trace(pd.Largest.Level, pd.Largest.Seed)
	if err != nil {
		return nil, err
	}
	run := func(slowRegions []guest.Region) (simtime.Duration, error) {
		vm := microvm.NewResident(cfg.VM, pd.Layout, slowRegions, 1)
		vm.SetLabel(pd.Spec.Name + "/binprof")
		vm.SetRecordTruth(false)
		res, err := vm.Run(tr)
		if err != nil {
			return 0, err
		}
		return res.Exec, nil
	}

	baseline, err := run(a.ZeroSlow)
	if err != nil {
		return nil, err
	}
	overheadRuns := 1.0 // the baseline run itself

	// Individual pass: each bin's own slowdown, for the offload order.
	for i := range bins {
		exec, err := run(append(append([]guest.Region{}, a.ZeroSlow...), bins[i].Regions...))
		if err != nil {
			return nil, err
		}
		bins[i].OwnSlowdown = slowdown(exec, baseline)
		overheadRuns += float64(exec) / float64(baseline)
	}

	// Offload order: cheapest slowdown per offloaded page first ("bins are
	// sorted based on the memory cost efficiency", Fig. 6).
	sort.SliceStable(bins, func(i, j int) bool {
		return bins[i].OwnSlowdown*float64(bins[j].Pages) < bins[j].OwnSlowdown*float64(bins[i].Pages)
	})
	a.Bins = bins

	// Cumulative sweep: k = 0..n bins offloaded.
	a.Curve = append(a.Curve, CurvePoint{
		BinsOffloaded: 0,
		Slowdown:      1,
		SlowPages:     a.ZeroSlowPages,
		NormCost:      cfg.Cost.Normalized(1, a.ZeroSlowPages, guestPages),
	})
	cumulative := append([]guest.Region{}, a.ZeroSlow...)
	slowPages := a.ZeroSlowPages
	for k := 1; k <= len(bins); k++ {
		cumulative = append(cumulative, bins[k-1].Regions...)
		slowPages += bins[k-1].Pages
		exec, err := run(cumulative)
		if err != nil {
			return nil, err
		}
		sd := 1 + slowdown(exec, baseline)
		overheadRuns += float64(exec) / float64(baseline)
		a.Curve = append(a.Curve, CurvePoint{
			BinsOffloaded: k,
			Slowdown:      sd,
			SlowPages:     slowPages,
			NormCost:      cfg.Cost.Normalized(sd, slowPages, guestPages),
		})
	}
	a.FullSlowSlowdown = a.Curve[len(a.Curve)-1].Slowdown

	// 5. Pick the minimum-cost configuration, optionally slowdown-bounded.
	a.ChosenK = chooseK(a.Curve, cfg.SlowdownThreshold)

	chosen := append([]guest.Region{}, a.ZeroSlow...)
	for k := 0; k < a.ChosenK; k++ {
		chosen = append(chosen, a.Bins[k].Regions...)
	}
	if a.Placement, err = mem.NewMultiPlacement(2, mem.Fast, guestPages); err != nil {
		return nil, err
	}
	a.Placement.SetRegions(chosen, mem.Slow)

	// Eq. 2: profiling overhead in invocation-equivalents.
	a.ProfilingOverhead = float64(pd.Profiled) + overheadRuns
	return a, nil
}

// slowdown returns exec/baseline - 1, clamped at 0 (measurement noise can
// make an offloaded configuration marginally faster).
func slowdown(exec, baseline simtime.Duration) float64 {
	if baseline <= 0 {
		return 0
	}
	s := float64(exec)/float64(baseline) - 1
	if s < 0 {
		return 0
	}
	return s
}

// chooseK selects the cumulative configuration with minimum cost; when a
// slowdown threshold is set, configurations beyond it are excluded (the
// paper's latency-critical mode).
func chooseK(curve []CurvePoint, threshold float64) int {
	best := 0 // k=0 has slowdown 1 and is always admissible
	for k, p := range curve {
		if threshold > 0 && p.Slowdown-1 > threshold {
			continue
		}
		if p.NormCost < curve[best].NormCost ||
			(p.NormCost == curve[best].NormCost && k > best) {
			best = k
		}
	}
	return best
}

// packBins splits region records into n near-equal-access bins using the
// greedy constant-bin-number heuristic.
func packBins(records []damon.RegionRecord, n int) ([]Bin, error) {
	weights := make([]int64, len(records))
	for i, r := range records {
		weights[i] = r.NrAccesses * r.Region.Pages
	}
	assignment, err := binpack.ToConstantBins(weights, n)
	if err != nil {
		return nil, err
	}
	var bins []Bin
	for _, idxs := range assignment {
		if len(idxs) == 0 {
			continue
		}
		var b Bin
		for _, i := range idxs {
			b.Regions = append(b.Regions, records[i].Region)
			b.Pages += records[i].Region.Pages
		}
		b.Regions = guest.NormalizeRegions(b.Regions)
		bins = append(bins, b)
	}
	return bins, nil
}

// BuildSnapshot performs Step IV: partition the single-tier snapshot into
// the tiered snapshot under the analysis' placement. Adjacent same-tier
// regions merge into single layout entries ("Bins Merging").
func BuildSnapshot(pd *ProfileData, a *Analysis) *snapshot.Tiered {
	return snapshot.BuildTiered(pd.Single, a.Placement)
}

package core

import (
	"fmt"

	"toss/internal/access"
	"toss/internal/damon"
	"toss/internal/fault"
	"toss/internal/microvm"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/xray"
)

// Phase is the controller's lifecycle state for one function.
type Phase int

const (
	// PhaseInitial means no invocation has happened yet (before Step I).
	PhaseInitial Phase = iota
	// PhaseProfiling means Step II is collecting DAMON patterns.
	PhaseProfiling
	// PhaseTiered means the tiered snapshot is serving invocations.
	PhaseTiered
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInitial:
		return "initial"
	case PhaseProfiling:
		return "profiling"
	case PhaseTiered:
		return "tiered"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Controller drives the full TOSS lifecycle for one function: initial
// execution, profiling until convergence, analysis, tiered serving, and
// re-profiling when the workload drifts (§V-E).
type Controller struct {
	cfg  Config
	spec *workload.Spec

	phase    Phase
	pd       *ProfileData
	analysis *Analysis
	tiered   *snapshot.Tiered

	// stable counts consecutive profiling invocations that left the
	// unified pattern unchanged.
	stable int
	// iterations counts invocations served from the tiered snapshot since
	// it was (re)generated — Eq. 4's #iterations.
	iterations int64
	// accelFactor accumulates Eq. 3.
	accelFactor float64
	// reprofiles counts completed re-profiling cycles.
	reprofiles int
	// regen accumulates incremental-regeneration statistics across
	// snapshot generations (§V-E).
	regen RegenStats
	// invocations counts every invocation ever served.
	invocations int64

	// hooks receive pipeline artifacts as they are produced.
	hooks Hooks
}

// Hooks lets observers watch the pipeline without coupling the controller
// to them.
type Hooks struct {
	// OnProfiled receives, per profiling invocation, DAMON's estimated
	// pattern alongside the invocation's exact ground-truth access counts —
	// the join the DAMON-accuracy audit (internal/obs) consumes.
	OnProfiled func(seq int, p damon.Pattern, truth *access.Histogram)
	// OnConverged fires after Step IV with the full artifact set (also on
	// re-profiling convergences).
	OnConverged func(pd *ProfileData, a *Analysis, ts *snapshot.Tiered)
	// OnPhase observes lifecycle transitions with the total invocation count
	// at the moment of the transition.
	OnPhase func(from, to Phase, invocation int64)
}

// SetHooks installs artifact hooks; call before the first invocation.
func (c *Controller) SetHooks(h Hooks) {
	c.hooks = h
	if c.pd != nil {
		c.pd.OnProfiled = h.OnProfiled
	}
}

// firePhase notifies the OnPhase hook of a transition.
func (c *Controller) firePhase(from, to Phase) {
	if c.hooks.OnPhase != nil {
		c.hooks.OnPhase(from, to, c.invocations)
	}
}

// NewController validates the configuration and returns a fresh controller.
func NewController(cfg Config, spec *workload.Spec) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if spec == nil {
		return nil, fmt.Errorf("core: nil workload spec")
	}
	return &Controller{cfg: cfg, spec: spec}, nil
}

// Phase returns the current lifecycle phase.
func (c *Controller) Phase() Phase { return c.phase }

// Analysis returns the latest Step III outcome (nil before convergence).
func (c *Controller) Analysis() *Analysis { return c.analysis }

// Tiered returns the current tiered snapshot (nil before convergence).
func (c *Controller) Tiered() *snapshot.Tiered { return c.tiered }

// Reprofiles returns how many re-profiling cycles have completed.
func (c *Controller) Reprofiles() int { return c.reprofiles }

// Invocations returns the total number of invocations served.
func (c *Controller) Invocations() int64 { return c.invocations }

// Result is one invocation's outcome plus controller bookkeeping.
type Result struct {
	microvm.Result
	// Phase the invocation was served in.
	Phase Phase
	// Converged is true on the invocation that completed profiling.
	Converged bool
	// ReprofileTriggered is true when this invocation tripped Eq. 4.
	ReprofileTriggered bool
}

// Invoke serves one invocation.
func (c *Controller) Invoke(lv workload.Level, seed int64, concurrency int) (Result, error) {
	return c.InvokeTraced(lv, seed, concurrency, nil)
}

// InvokeTraced is Invoke with an optional telemetry span: the invocation's
// lifecycle phase becomes a child span annotating which controller path
// served it, with the machine-level spans nested below.
func (c *Controller) InvokeTraced(lv workload.Level, seed int64, concurrency int, parent *telemetry.Span) (Result, error) {
	c.invocations++
	var phaseSpan *telemetry.Span
	if parent != nil {
		phaseSpan = parent.Child(telemetry.KindControllerPhase, "phase:"+c.phase.String(), 0)
	}
	switch c.phase {
	case PhaseInitial:
		pd, res, err := NewProfileDataTraced(c.cfg, c.spec, lv, seed, phaseSpan)
		if err != nil {
			return Result{}, err
		}
		c.pd = pd
		c.pd.OnProfiled = c.hooks.OnProfiled
		c.phase = PhaseProfiling
		c.stable = 0
		c.firePhase(PhaseInitial, PhaseProfiling)
		phaseSpan.EndAt(res.Total())
		return Result{Result: res, Phase: PhaseInitial}, nil

	case PhaseProfiling:
		res, changed, err := c.pd.ProfileInvocationTraced(c.cfg, lv, seed, concurrency, phaseSpan)
		if err != nil {
			return Result{}, err
		}
		if changed {
			c.stable = 0
		} else {
			c.stable++
		}
		out := Result{Result: res, Phase: PhaseProfiling}
		if c.stable >= c.cfg.ConvergenceWindow {
			if err := c.converge(phaseSpan, res.Total()); err != nil {
				return Result{}, err
			}
			out.Converged = true
		}
		phaseSpan.EndAt(res.Total())
		return out, nil

	case PhaseTiered:
		tr, err := c.spec.Trace(lv, seed)
		if err != nil {
			return Result{}, err
		}
		// Restore-time fault queries (see FAULTS.md). These fire before the
		// tiered restore is attempted, modelling failures the restore path
		// itself would hit: the slow tier's device being unreachable, the
		// snapshot failing its checksum, or the DAMON profile having gone
		// stale. Callers (internal/platform, internal/sched) own recovery.
		if inj := c.cfg.VM.Faults; inj != nil {
			name := c.spec.Name
			if _, fired := inj.At(fault.SiteSlowOutage, name, 0); fired {
				return Result{}, fault.Errorf(fault.SiteSlowOutage, name, fault.ErrTierUnavailable)
			}
			if _, fired := inj.At(fault.SiteRestoreCorrupt, name, 0); fired {
				return Result{}, fault.Errorf(fault.SiteRestoreCorrupt, name,
					fmt.Errorf("%w: injected checksum mismatch (sum %#x)", snapshot.ErrCorrupt, c.tiered.Sum))
			}
			if _, fired := inj.At(fault.SiteProfileStale, name, 0); fired {
				return Result{}, fault.Errorf(fault.SiteProfileStale, name, fault.ErrProfileStale)
			}
		}
		vm := microvm.RestoreTiered(c.cfg.VM, c.pd.Layout, c.tiered, concurrency)
		vm.SetRecordTruth(false) // profiling is detached in the tiered phase
		res, err := vm.RunTraced(tr, phaseSpan)
		if err != nil {
			return Result{}, fmt.Errorf("core: tiered invocation: %w", err)
		}
		c.iterations++
		// Eq. 3: every invocation longer than the profiling phase's
		// longest-running invocation accelerates re-profiling.
		// FullSlowSlowdown is already the ratio (1 + Slowdown_Slow).
		if lri := c.pd.Largest.Exec; lri > 0 && res.Exec > lri {
			c.accelFactor += float64(res.Exec) / float64(lri) * c.analysis.FullSlowSlowdown
		}
		out := Result{Result: res, Phase: PhaseTiered}
		if c.shouldReprofile() {
			c.startReprofile()
			out.ReprofileTriggered = true
		}
		phaseSpan.EndAt(res.Total())
		return out, nil

	default:
		return Result{}, fmt.Errorf("core: invalid phase %v", c.phase)
	}
}

// RegenStats tracks how much work snapshot re-generation avoided by
// rewriting only the pages whose tier changed.
type RegenStats struct {
	// Generations counts tiered snapshots built (1 after first converge).
	Generations int
	// PagesReused / PagesRewritten accumulate across re-generations.
	PagesReused    int64
	PagesRewritten int64
}

// RegenStats returns the incremental-regeneration counters.
func (c *Controller) RegenStats() RegenStats { return c.regen }

// converge runs Step III and Step IV and switches to tiered serving. When a
// span is given, analysis and the tier split are marked at virtual time `at`
// (the converging invocation's end) as instantaneous control-plane events.
func (c *Controller) converge(span *telemetry.Span, at simtime.Duration) error {
	a, err := Analyze(c.cfg, c.pd)
	if err != nil {
		return err
	}
	c.analysis = a
	old := c.tiered
	c.tiered = BuildSnapshot(c.pd, a)
	if span != nil {
		span.Child(telemetry.KindControllerPhase, "analyze", at,
			telemetry.I64("bins", int64(len(a.Bins))),
			telemetry.I64("chosen_k", int64(a.ChosenK)),
			telemetry.F64("norm_cost", a.MinCost()),
			telemetry.F64("slow_share", a.SlowShare())).EndAt(at)
		span.Child(telemetry.KindSnapshotCreate, "tier-split", at,
			telemetry.I64("layout_entries", int64(len(c.tiered.Entries))),
			telemetry.I64("slow_pages", a.Curve[a.ChosenK].SlowPages)).EndAt(at)
	}
	c.regen.Generations++
	if old != nil {
		diff := snapshot.DiffTiered(old, c.tiered)
		c.regen.PagesReused += diff.ReusedPages
		c.regen.PagesRewritten += diff.RewrittenPages()
	}
	c.phase = PhaseTiered
	c.iterations = 0
	c.accelFactor = 0
	c.firePhase(PhaseProfiling, PhaseTiered)
	if c.hooks.OnConverged != nil {
		c.hooks.OnConverged(c.pd, a, c.tiered)
	}
	return nil
}

// shouldReprofile evaluates Eq. 4:
//
//	#iterations * budget >= prof_overhead - accel_factor
func (c *Controller) shouldReprofile() bool {
	if c.cfg.ReprofileBudget <= 0 || c.analysis == nil {
		return false
	}
	return float64(c.iterations)*c.cfg.ReprofileBudget >= c.analysis.ProfilingOverhead-c.accelFactor
}

// startReprofile sends the controller back to Step II, keeping the single
// snapshot and the unified pattern so new behaviour *enhances* the existing
// profile rather than replacing it.
func (c *Controller) startReprofile() {
	c.phase = PhaseProfiling
	c.stable = 0
	c.reprofiles++
	c.firePhase(PhaseTiered, PhaseProfiling)
}

// InvokeLazy serves one invocation from the single-tier snapshot with
// on-demand paging, bypassing the tiered restore path entirely. It is the
// degradation fallback when the slow tier is unreachable or the profile is
// stale (FAULTS.md): correctness over placement — every page demand-faults
// from disk, but no tier is touched. The lifecycle phase is unchanged.
func (c *Controller) InvokeLazy(lv workload.Level, seed int64, concurrency int, parent *telemetry.Span) (Result, error) {
	if c.pd == nil || c.pd.Single == nil {
		return Result{}, fmt.Errorf("core: no single snapshot for lazy fallback")
	}
	c.invocations++
	tr, err := c.spec.Trace(lv, seed)
	if err != nil {
		return Result{}, err
	}
	var phaseSpan *telemetry.Span
	if parent != nil {
		phaseSpan = parent.Child(telemetry.KindControllerPhase, "phase:degraded-lazy", 0)
	}
	vm := microvm.RestoreLazy(c.cfg.VM, c.pd.Layout, c.pd.Single, concurrency)
	vm.SetRecordTruth(false)
	res, err := vm.RunTraced(tr, phaseSpan)
	if err != nil {
		return Result{}, fmt.Errorf("core: lazy fallback: %w", err)
	}
	phaseSpan.EndAt(res.Total())
	return Result{Result: res, Phase: c.phase}, nil
}

// RecoverCorrupt handles an injected (or detected) snapshot corruption: it
// invalidates the tiered snapshot, cold-boots the function to re-capture a
// fresh single-tier snapshot, and — when an analysis already exists —
// immediately rebuilds the tiered snapshot from it (FAULTS.md's
// invalidate + cold boot + re-snapshot policy). The returned result is the
// cold invocation, with the capture cost charged to its setup time.
func (c *Controller) RecoverCorrupt(lv workload.Level, seed int64, concurrency int, parent *telemetry.Span) (Result, error) {
	c.invocations++
	tr, err := c.spec.Trace(lv, seed)
	if err != nil {
		return Result{}, err
	}
	var phaseSpan *telemetry.Span
	if parent != nil {
		phaseSpan = parent.Child(telemetry.KindControllerPhase, "phase:recover-corrupt", 0)
	}
	c.tiered = nil
	vm := microvm.NewBooted(c.cfg.VM, c.pd.Layout)
	vm.SetLabel(c.spec.Name)
	vm.SetRecordTruth(false)
	res, err := vm.RunTraced(tr, phaseSpan)
	if err != nil {
		return Result{}, fmt.Errorf("core: corrupt recovery boot: %w", err)
	}
	single, snapCost := vm.SnapshotTraced(c.spec.Name, phaseSpan, res.Setup+res.Exec)
	res.Setup += snapCost
	res.Budget.Extend(xray.SegSnapshotWrite, snapCost)
	c.pd.Single = single
	if c.analysis != nil {
		c.tiered = BuildSnapshot(c.pd, c.analysis)
		c.regen.Generations++
	}
	phaseSpan.EndAt(res.Total())
	return Result{Result: res, Phase: c.phase}, nil
}

// ForceReprofile demotes a tiered function back to the profiling phase, the
// stale-profile degradation policy (FAULTS.md): serve from the single
// snapshot with DAMON re-attached until the pattern re-converges. No-op
// outside the tiered phase.
func (c *Controller) ForceReprofile() {
	if c.phase == PhaseTiered {
		c.startReprofile()
	}
}

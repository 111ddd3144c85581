package core

import (
	"errors"
	"fmt"

	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
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

// MaxProfilingInvocations bounds Converge's profiling loop.
const MaxProfilingInvocations = 400

// Converge runs Steps I-IV for spec on a fresh controller: Step I on
// levels[0] at seed, then profiling invocations that rotate through levels
// (levels[i%len(levels)] at seed+i+1, concurrency 1) until the unified
// pattern converges and the controller serves its tiered snapshot. It fails
// if profiling has not converged after MaxProfilingInvocations invocations.
func Converge(cfg Config, spec *workload.Spec, levels []workload.Level, seed int64) (*Controller, error) {
	if len(levels) == 0 {
		return nil, errors.New("core: no input levels to profile")
	}
	ctl, err := NewController(cfg, spec)
	if err != nil {
		return nil, err
	}
	if _, err := ctl.Invoke(levels[0], seed, 1); err != nil {
		return nil, err
	}
	for i := 0; ctl.phase != PhaseTiered; i++ {
		if i == MaxProfilingInvocations {
			return nil, fmt.Errorf("core: %s did not converge in %d profiling invocations", spec.Name, i)
		}
		if _, err := ctl.Invoke(levels[i%len(levels)], seed+int64(i)+1, 1); err != nil {
			return nil, err
		}
	}
	return ctl, nil
}

// Phase returns the current lifecycle phase.
func (c *Controller) Phase() Phase { return c.phase }

// ProfileData returns the Steps I-II state: the single-tier snapshot and the
// unified pattern (nil before the first invocation).
func (c *Controller) ProfileData() *ProfileData { return c.pd }

// Analysis returns the latest Step III outcome (nil before convergence).
func (c *Controller) Analysis() *Analysis { return c.analysis }

// Tiered returns the current tiered snapshot (nil before convergence).
func (c *Controller) Tiered() *snapshot.Tiered { return c.tiered }

// Reprofiles returns how many re-profiling cycles have completed.
func (c *Controller) Reprofiles() int { return c.reprofiles }

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
		c.phase = PhaseProfiling
		c.stable = 0
		c.cfg.VM.Recorder.ObservePhase(c.spec.Name, PhaseInitial.String(), PhaseProfiling.String())
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
			c.Reprofile()
			out.ReprofileTriggered = true
		}
		phaseSpan.EndAt(res.Total())
		return out, nil

	default:
		return Result{}, fmt.Errorf("core: invalid phase %v", c.phase)
	}
}

// converge runs Step III and Step IV and switches to tiered serving. When a
// span is given, analysis and the tier split are marked at virtual time `at`
// (the converging invocation's end) as instantaneous control-plane events.
func (c *Controller) converge(span *telemetry.Span, at simtime.Duration) error {
	a, err := Analyze(c.cfg, c.pd)
	if err != nil {
		return err
	}
	c.analysis = a
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
	c.phase = PhaseTiered
	c.iterations = 0
	c.accelFactor = 0
	if rec := c.cfg.VM.Recorder; rec != nil {
		rec.ObservePhase(c.spec.Name, PhaseProfiling.String(), PhaseTiered.String())
		rec.ObservePlacement(c.spec.Name, a.Placement.Regions(mem.Slow), c.tiered.GuestPages, "converged")
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

// Reprofile sends a tiered controller back to Step II, keeping the single
// snapshot and the unified pattern so new behaviour *enhances* the existing
// profile rather than replacing it. Eq. 4 calls it, and so does the platform
// when a restore finds the profile stale (FAULTS.md).
func (c *Controller) Reprofile() {
	c.phase = PhaseProfiling
	c.stable = 0
	c.reprofiles++
	c.cfg.VM.Recorder.ObservePhase(c.spec.Name, PhaseTiered.String(), PhaseProfiling.String())
}

// Resnapshot replaces the single-tier snapshot with single, captured afresh
// after the old one failed its checksum, and rebuilds the tiered snapshot
// from the current analysis (Step IV), so the lifecycle carries on from the
// new capture.
func (c *Controller) Resnapshot(single *snapshot.Single) {
	c.pd.Single = single
	if c.analysis != nil {
		c.tiered = BuildSnapshot(c.pd, c.analysis)
	}
}

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"toss/internal/core"
	"toss/internal/damon"
	"toss/internal/microvm"
	"toss/internal/snapshot"
	"toss/internal/workload"
)

// build is the paper's Steps I-IV from a cold start: what a provider pays to
// deploy a function. One op is one function build; a pass builds all ten
// Table I functions once from fresh inputs.
var buildDef = workloadDef{
	name:            "build",
	make:            func(seed int64, dir string, p *probe) bench { return newBuildBench(seed, dir, p) },
	passesPerSecond: 1.25,
	top: []string{"workload.trace_s", "core.step1_s", "core.step2_s", "core.analyze_s",
		"snapshot.build_s", "snapshot.write_s", "snapshot.read_s"},
}

// The suite's profiling settings: the paper's N=100 convergence window
// scaled to 12, and a cap on Step II invocations.
const (
	convergenceWindow       = 12
	maxProfilingInvocations = 400
)

// buildReference is the function set-up builds from fixed inputs.
const buildReference = "compress"

var errNotConverged = errors.New("profiling did not converge")

func suiteConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = convergenceWindow
	cfg.ReprofileBudget = 0
	return cfg
}

type buildBench struct {
	seed  int64
	dir   string
	p     *probe
	cfg   core.Config
	specs []*workload.Spec
	// afterWrite, when set, runs between WriteTiered and ReadTiered.
	afterWrite func(dir string) error

	acc        accumulator
	cost, slow float64
}

func newBuildBench(seed int64, dir string, p *probe) *buildBench {
	return &buildBench{seed: seed, dir: dir, p: p, cfg: suiteConfig(), acc: newAccumulator()}
}

func (b *buildBench) setUp() (digest, error) {
	b.specs = workload.Registry()
	ref := newAccumulator()
	if _, err := buildOne(b.cfg, workload.ByNameMust(buildReference), 1, b.dir, b.p, &ref, nil); err != nil {
		return 0, err
	}
	return ref.dig, nil
}

func (b *buildBench) pass(i int) error {
	for j, spec := range b.specs {
		b.acc.ops++
		out, err := buildOne(b.cfg, spec, mix(b.seed, int64(i), int64(j))>>8, b.dir, b.p, &b.acc, b.afterWrite)
		if err != nil {
			b.acc.fail("%s pass %d: %v", spec.Name, i, err)
			continue
		}
		b.cost += out.a.MinCost()
		b.slow += out.a.MinCostSlowdown()
	}
	return nil
}

func (b *buildBench) result() outcome {
	n := float64(max(b.acc.ops-b.acc.failed, 1))
	return b.acc.outcome(
		metric{"norm_cost", b.cost / n, "ratio"},
		metric{"p50_ms", b.acc.lat.ms(50), "ms"},
		metric{"p99_ms", b.acc.lat.ms(99), "ms"},
		metric{"slowdown", b.slow / n, "ratio"})
}

// built is one function's build.
type built struct {
	pd *core.ProfileData
	a  *core.Analysis
	ts *snapshot.Tiered
}

// buildOne runs Steps I-IV for one function from a cold start with inputs
// derived from base, then writes the tiered snapshot under dir and reads it
// back. Virtual outputs go to acc; an error means the op failed.
func buildOne(cfg core.Config, spec *workload.Spec, base int64, dir string, p *probe, acc *accumulator, afterWrite func(string) error) (*built, error) {
	// Traces are memoised, so a traced run generates each one under its
	// own timer before the call that would otherwise generate it.
	trace := func(lv workload.Level, seed int64) {
		if p.traced {
			t := p.start()
			_, _ = spec.Trace(lv, seed) // a failure resurfaces from the layer call
			p.stop("workload.trace_s", t)
		}
	}

	trace(workload.I, base)
	t := p.start()
	pd, res, err := core.NewProfileData(cfg, spec, workload.I, base)
	p.stop("core.step1_s", t)
	if err != nil {
		return nil, err
	}
	acc.lat.add(res.Total())
	acc.dig.add(int64(res.Setup), int64(res.Exec))

	var mirror *damon.Unified
	if p.traced {
		mirror = damon.NewUnified()
	}
	stable := 0
	for i := 0; stable < cfg.ConvergenceWindow; i++ {
		if i >= maxProfilingInvocations {
			return nil, fmt.Errorf("%w in %d invocations", errNotConverged, i)
		}
		lv, seed := workload.Levels[i%len(workload.Levels)], base+int64(i)+1
		trace(lv, seed)
		t := p.start()
		res, changed, err := pd.ProfileInvocation(cfg, lv, seed, 1)
		p.stop("core.step2_s", t)
		if err != nil {
			return nil, err
		}
		p.count("core.step2_calls", 1)
		if changed {
			stable = 0
		} else {
			stable++
		}
		acc.lat.add(res.Total())
		acc.dig.add(int64(res.Setup), int64(res.Exec), boolWord(changed))
		if p.traced {
			if err := reissueProfiling(cfg, pd, lv, seed, changed, mirror, p); err != nil {
				return nil, err
			}
		}
	}

	t = p.start()
	a, err := core.Analyze(cfg, pd)
	p.stop("core.analyze_s", t)
	if err != nil {
		return nil, err
	}
	p.count("core.bins", float64(len(a.Bins)))

	t = p.start()
	ts := core.BuildSnapshot(pd, a)
	p.stop("snapshot.build_s", t)
	sum := ts.Checksum()
	acc.dig.add(int64(pd.Profiled), int64(a.ChosenK), int64(sum))
	acc.dig.addFloat(a.MinCost())
	acc.dig.addFloat(a.MinCostSlowdown())

	d := filepath.Join(dir, spec.Name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, err
	}
	t = p.start()
	err = snapshot.WriteTiered(d, ts)
	p.stop("snapshot.write_s", t)
	if err != nil {
		return nil, err
	}
	if p.traced {
		t0 := time.Now()
		p.count("snapshot.bytes", float64(filesSize(snapshot.PathsIn(d))))
		p.exclude(t0)
	}
	if afterWrite != nil {
		if err := afterWrite(d); err != nil {
			return nil, err
		}
	}
	t = p.start()
	back, err := snapshot.ReadTiered(d)
	if err == nil {
		err = back.Verify(sum)
	}
	p.stop("snapshot.read_s", t)
	if err != nil {
		return nil, fmt.Errorf("snapshot round trip: %w", err)
	}
	return &built{pd: pd, a: a, ts: ts}, nil
}

// reissueProfiling repeats one Step II invocation's layers one at a time —
// the lazy restore and run, DAMON's sampling of its truth histogram, and
// the fold into a mirror of the unified pattern — so each layer's host time
// is measured on its own. The time is excluded from the timed phase.
func reissueProfiling(cfg core.Config, pd *core.ProfileData, lv workload.Level, seed int64, changed bool, mirror *damon.Unified, p *probe) error {
	t0 := time.Now()
	defer p.exclude(t0)
	tr, err := pd.Spec.Trace(lv, seed)
	if err != nil {
		return err
	}
	t := p.start()
	vm := microvm.RestoreLazy(cfg.VM, pd.Layout, pd.Single, 1)
	res, err := vm.Run(tr)
	p.stop("microvm.restore_run_s", t)
	if err != nil {
		return err
	}
	// ProfileInvocation seeds DAMON with seed^n for its n-th invocation.
	t = p.start()
	pattern := cfg.Damon.Profile(res.Truth, pd.Layout.TotalPages, seed^int64(pd.Profiled))
	p.stop("damon.profile_s", t)
	p.count("damon.regions", float64(len(pattern.Records)))
	t = p.start()
	mirrorChanged := mirror.Fold(pattern)
	p.stop("damon.fold_s", t)
	if mirrorChanged != changed {
		return fmt.Errorf("re-issued DAMON fold changed=%t, profiling invocation changed=%t", mirrorChanged, changed)
	}
	return nil
}

func filesSize(ps snapshot.Paths) int64 {
	var n int64
	for _, f := range []string{ps.Layout, ps.Fast, ps.Slow} {
		if st, err := os.Stat(f); err == nil {
			n += st.Size()
		}
	}
	return n
}

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

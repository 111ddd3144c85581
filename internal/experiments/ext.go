package experiments

import (
	"fmt"

	"toss/internal/core"
	"toss/internal/costmodel"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/par"
	"toss/internal/pricing"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// Extension experiments: beyond the paper's artifacts, these evaluate the
// mechanisms the paper names but does not measure — keep-alive caching and
// pre-warming (§VI-A), arrival-pattern independence of profiling (§IV-A),
// alternative tier technologies (§III, §VII-B), and customer-visible
// billing under the dynamic tiered plan (§III-D).

// ExtKeepAlive compares cold-start behaviour without keep-alive, with the
// tier-aware greedy-dual keep-alive cache, and with prediction-driven
// pre-warming on top, over one bursty+periodic trace.
func ExtKeepAlive(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "ext1",
		Title: "Keep-alive and pre-warming on both tiers (§VI-A, beyond the paper)",
		Header: []string{"mechanism", "config", "cold %", "warm %", "prewarmed %",
			"mean setup (ms)", "p99 latency (ms)", "evictions"},
	}
	arrivals, err := workload.MixArrivals(workload.MixConfig{
		Horizon: 120 * simtime.Second,
		Mix: []workload.FunctionMix{
			{Function: "pyaes", Pattern: workload.Fixed, MeanIAT: 3 * simtime.Second},
			{Function: "json_load_dump", Pattern: workload.Bursty, MeanIAT: 2 * simtime.Second},
			{Function: "compress", Pattern: workload.Steady, MeanIAT: 4 * simtime.Second},
		},
		Seed: s.BaseSeed,
	})
	if err != nil {
		return nil, err
	}
	functions := []string{"pyaes", "json_load_dump", "compress"}

	configs := []struct {
		name   string
		mutate func(*sched.Config)
	}{
		{"no keep-alive", func(c *sched.Config) {}},
		{"keep-alive", func(c *sched.Config) {
			c.KeepAliveFastBytes = 256 << 20
			c.KeepAliveSlowBytes = 1 << 30
			c.KeepAliveTTL = 2 * simtime.Second
		}},
		{"keep-alive+prewarm", func(c *sched.Config) {
			c.KeepAliveFastBytes = 256 << 20
			c.KeepAliveSlowBytes = 1 << 30
			c.KeepAliveTTL = 2 * simtime.Second
			c.Prewarm = true
		}},
	}
	// The nine (mechanism, config) simulations share nothing but the
	// read-only arrival trace: fan them out, fold rows in combo order.
	type combo struct {
		mechanism sched.Mechanism
		cfgIdx    int
	}
	var combos []combo
	for _, mechanism := range []sched.Mechanism{sched.MechDRAM, sched.MechREAP, sched.MechTOSS} {
		for i := range configs {
			combos = append(combos, combo{mechanism, i})
		}
	}
	type comboRes struct {
		row         []any
		cold, setup float64
	}
	res, err := par.Map(s.Pool(), combos, func(_ int, c combo) (comboRes, error) {
		cc := configs[c.cfgIdx]
		cfg := sched.DefaultConfig()
		cfg.Cores = 8
		cfg.Core = s.Core
		cfg.Mechanism = c.mechanism
		cc.mutate(&cfg)
		sim, err := sched.New(cfg, functions)
		if err != nil {
			return comboRes{}, err
		}
		rep, err := sim.Run(arrivals)
		if err != nil {
			return comboRes{}, err
		}
		var warm, prewarmed int
		var setupSum simtime.Duration
		for _, r := range rep.Records {
			setupSum += r.Setup
			switch r.Start {
			case sched.WarmStart:
				warm++
			case sched.PrewarmedStart:
				prewarmed++
			}
		}
		n := float64(len(rep.Records))
		setup := (simtime.Duration(int64(setupSum) / int64(n))).Milliseconds()
		return comboRes{row: []any{c.mechanism.String(), cc.name,
			fmt.Sprintf("%.0f%%", rep.ColdFraction()*100),
			fmt.Sprintf("%.0f%%", float64(warm)/n*100),
			fmt.Sprintf("%.0f%%", float64(prewarmed)/n*100),
			fmt.Sprintf("%.2f", setup),
			fmt.Sprintf("%.1f", rep.LatencyPercentile(99).Milliseconds()),
			rep.CacheStats.Evictions}, cold: rep.ColdFraction(), setup: setup}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		t.AddRow(r.row...)
	}
	// res is mechanism-major: dram, reap, toss, each over configs.
	reapOff, reapOn := res[len(configs)], res[len(configs)+1]
	tossOff, tossOn := res[2*len(configs)], res[2*len(configs)+1]
	t.Claim("ext1.keepalive_helps_reap_more", reapOff.setup-reapOn.setup > tossOff.setup-tossOn.setup,
		"keep-alive slashes setup for REAP (big prefetches) but barely moves TOSS — tiered cold starts are already near-constant-time, the paper's pitch")
	t.Claim("ext1.toss_composes_with_keepalive", tossOn.cold < tossOff.cold && tossOff.setup < reapOff.setup,
		"caching is orthogonal: TOSS composes with it, keeping evicted VMs cheap to restore (§VI-A)")
	return t, nil
}

// ExtProfilingVsArrivalPattern verifies §IV-A: profiling converges after a
// fixed number of *invocations* regardless of the request distribution; the
// wall-clock time to convergence varies with the arrival pattern instead.
func ExtProfilingVsArrivalPattern(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "ext2",
		Title:  "Profiling-phase convergence vs arrival pattern (§IV-A)",
		Header: []string{"pattern", "invocations to converge", "virtual time to converge"},
	}
	const fn = "json_load_dump"
	patterns := []workload.Pattern{workload.Steady, workload.Fixed, workload.Bursty, workload.Diurnal}
	var counts []int
	for _, pat := range patterns {
		arrivals, err := workload.MixArrivals(workload.MixConfig{
			Horizon: 3000 * simtime.Second,
			Mix: []workload.FunctionMix{{
				Function: fn, Pattern: pat, MeanIAT: 2 * simtime.Second,
			}},
			Seed: s.BaseSeed,
		})
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewController(s.Core, workload.ByNameMust(fn))
		if err != nil {
			return nil, err
		}
		converged := -1
		var when simtime.Duration
		for i, a := range arrivals {
			res, err := ctrl.Invoke(a.Level, a.Seed, 1)
			if err != nil {
				return nil, err
			}
			if res.Converged {
				converged = i + 1
				when = a.At
				break
			}
		}
		if converged < 0 {
			return nil, fmt.Errorf("ext2: %s under %v never converged", fn, pat)
		}
		counts = append(counts, converged)
		t.AddRow(pat.String(), converged, when.Std().Round(simtime.Millisecond.Std()).String())
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	t.Claim("ext2.distribution_independent", max <= 4*min,
		"invocations to converge spread only %d..%d across patterns — profiling is distribution-independent (§IV-A)", min, max)
	t.AddNote("virtual time to converge tracks the arrival rate, not the profiler")
	return t, nil
}

// ExtTierTechnologies evaluates TOSS across the technology pairs of §III
// and §VII-B: the same pipeline with CXL-DRAM, NVMe-class, and HBM presets.
func ExtTierTechnologies(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "ext3",
		Title:  "TOSS across tier technologies (§III, §VII-B)",
		Header: []string{"tiers", "cost ratio", "function", "full-slow", "min cost", "optimal", "slowdown %", "slow %"},
	}
	fns := []string{"compress", "matmul", "pagerank"}
	// One sub-suite per preset (so each preset's builds are cached under its
	// own config), then the 3x3 (preset, function) pipeline runs fan out.
	type cell struct {
		preset mem.Preset
		local  *Suite
		m      costmodel.Model
		fn     string
	}
	var cells []cell
	for _, preset := range mem.Presets() {
		cfg := s.Core
		cfg.VM.Mem = preset.Mem
		m, err := costmodel.WithRatio(preset.CostRatio)
		if err != nil {
			return nil, err
		}
		cfg.Cost = m
		local := &Suite{Core: cfg, Iterations: s.Iterations, BaseSeed: s.BaseSeed}
		for _, fn := range fns {
			cells = append(cells, cell{preset: preset, local: local, m: m, fn: fn})
		}
	}
	analyses, err := par.Map(s.Pool(), cells, func(_ int, c cell) (*core.Analysis, error) {
		b, err := c.local.buildFor(workload.ByNameMust(c.fn), AllLevels)
		if err != nil {
			return nil, err
		}
		return b.analysis, nil
	})
	if err != nil {
		return nil, err
	}
	type key struct{ preset, fn string }
	byCell := map[key]*core.Analysis{}
	for i, c := range cells {
		a := analyses[i]
		byCell[key{c.preset.Name, c.fn}] = a
		t.AddRow(c.preset.Name, c.preset.CostRatio, c.fn,
			a.FullSlowSlowdown, a.MinCost(), c.m.Optimal(),
			fmt.Sprintf("%.1f", (a.MinCostSlowdown()-1)*100),
			fmt.Sprintf("%.1f%%", a.SlowShare()*100))
	}
	// From the closest slow tier to the most distant (cxl, optane, nvme),
	// every function offloads no more, slows down no less fully offloaded,
	// and reaches no higher minimum cost.
	ordered := true
	for _, fn := range fns {
		near, mid, far := byCell[key{"dram+cxl", fn}], byCell[key{"dram+optane", fn}], byCell[key{"dram+nvme", fn}]
		ordered = ordered &&
			near.SlowShare() >= mid.SlowShare() && mid.SlowShare() >= far.SlowShare() &&
			near.FullSlowSlowdown <= mid.FullSlowSlowdown && mid.FullSlowSlowdown <= far.FullSlowSlowdown &&
			near.MinCost() >= mid.MinCost() && mid.MinCost() >= far.MinCost()
	}
	t.Claim("ext3.closer_tiers_save_less", ordered,
		"closer tiers (cxl) offload more at less slowdown but save less per byte; distant tiers (nvme) invert the trade")
	return t, nil
}

// ExtBilling prices the paper's result in customer terms: Lambda-class
// $/1M invocations under the DRAM-only plan vs the TOSS dynamic tiered
// plan (§III-D), using each function's measured input-IV behaviour.
func ExtBilling(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "ext4",
		Title:  "Customer bill per 1M invocations: DRAM-only vs TOSS tiered plan (§III-D)",
		Header: []string{"function", "exec (ms)", "slowdown %", "slow %", "dram $/1M", "toss $/1M", "saving"},
	}
	plan, err := pricing.NewTiered(pricing.LambdaLike(), s.Core.Cost.Ratio())
	if err != nil {
		return nil, err
	}
	type specRes struct {
		row        []any
		dram, toss float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return specRes{}, err
		}
		a := b.analysis
		// Measured DRAM-only exec at input IV.
		layout, err := spec.Layout()
		if err != nil {
			return specRes{}, err
		}
		tr, err := spec.Trace(workload.IV, s.BaseSeed+23)
		if err != nil {
			return specRes{}, err
		}
		vm := microvm.NewResident(s.Core.VM, layout, nil, 1)
		vm.SetLabel(spec.Name)
		vm.SetRecordTruth(false)
		r, err := vm.Run(tr)
		if err != nil {
			return specRes{}, err
		}
		exec := r.Exec
		slowBytes := int64(float64(spec.MemBytes) * a.SlowShare())
		slowdown := a.MinCostSlowdown()
		dram := plan.Plan.PerMillion(spec.MemBytes, exec)
		toss := plan.PerMillion(spec.MemBytes-slowBytes, slowBytes, exec.Scale(slowdown))
		return specRes{
			row: []any{spec.Name,
				fmt.Sprintf("%.1f", exec.Milliseconds()),
				fmt.Sprintf("%.1f", (slowdown-1)*100),
				fmt.Sprintf("%.1f%%", a.SlowShare()*100),
				fmt.Sprintf("$%.2f", dram),
				fmt.Sprintf("$%.2f", toss),
				fmt.Sprintf("%.0f%%", (1-toss/dram)*100)},
			dram: dram, toss: toss,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var totalDram, totalToss float64
	inBand := true
	for _, sr := range res {
		totalDram += sr.dram
		totalToss += sr.toss
		// No function pays more than on the DRAM-only plan, nor saves more
		// than the tiered discount allows.
		saving := (1 - sr.toss/sr.dram) * 100
		inBand = inBand && saving >= 0 && saving < 60.1
		t.AddRow(sr.row...)
	}
	t.Claim("ext4.saving_band", inBand,
		"whole-suite bill: $%.2f -> $%.2f per 1M invocations (%.0f%% saved); worst case equals today's plan (§III-D)",
		totalDram, totalToss, (1-totalToss/totalDram)*100)
	return t, nil
}

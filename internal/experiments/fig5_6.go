package experiments

import (
	"fmt"
	"sort"

	"toss/internal/guest"
	"toss/internal/par"
	"toss/internal/stats"
	"toss/internal/workload"
)

// Fig5MinimumMemoryCost reproduces Fig. 5: each function's minimum
// normalized memory cost and the slowdown it carries, using the snapshot
// generated from all inputs and evaluating with input IV. The optimal cost
// under the 2.5x cost ratio is 0.4; DRAM-only is 1.0.
func Fig5MinimumMemoryCost(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Minimum normalized memory cost and slowdown, input IV, all-inputs snapshot (Fig. 5)",
		Header: []string{"function", "norm cost", "slowdown %", "optimal", "dram"},
	}
	// Fan the per-function pipeline builds out on the pool (the math after
	// each build is trivial); fold rows in registry order.
	type specRes struct {
		cost, sd float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return specRes{}, err
		}
		return specRes{cost: b.analysis.MinCost(), sd: (b.analysis.MinCostSlowdown() - 1) * 100}, nil
	})
	if err != nil {
		return nil, err
	}
	var costs, sdowns []float64
	under10 := 0
	for i, r := range res {
		costs = append(costs, r.cost)
		sdowns = append(sdowns, r.sd)
		if r.sd < 10 {
			under10++
		}
		t.AddRow(workload.Registry()[i].Name, r.cost, fmt.Sprintf("%.1f", r.sd), s.Core.Cost.Optimal(), 1.0)
	}
	minCost, maxCost := stats.Min(costs), stats.Max(costs)
	t.Claim("fig5.cost_band", minCost >= 0.4-1e-9 && maxCost < 1,
		"cost: avg %.2f, range [%.2f, %.2f] (paper: avg 0.48, range 0.4-0.87)",
		stats.Mean(costs), minCost, maxCost)
	minSD, maxSD := stats.Min(sdowns), stats.Max(sdowns)
	t.Claim("fig5.slowdown_within_paper_range", minSD >= 0 && maxSD <= 25.6,
		"slowdown: avg %.1f%%, range [%.1f%%, %.1f%%] (paper: avg 6.7%%, 0-25.6%%)",
		stats.Mean(sdowns), minSD, maxSD)
	t.Claim("fig5.most_under_10pct", 2*under10 > len(res),
		"%d/10 functions stay under 10%% slowdown (paper: 7/10)", under10)
	return t, nil
}

// Table2SlowTierShare reproduces Table II: the share of guest memory each
// function offloads to the slow tier at the minimum-cost configuration.
func Table2SlowTierShare(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Memory offloaded to the slow tier at minimum cost (Table II)",
		Header: []string{"function", "slow tier %"},
	}
	shares, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (float64, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return 0, err
		}
		return b.analysis.SlowShare() * 100, nil
	})
	if err != nil {
		return nil, err
	}
	shareOf := map[string]float64{}
	for i, share := range shares {
		shareOf[workload.Registry()[i].Name] = share
		t.AddRow(workload.Registry()[i].Name, fmt.Sprintf("%.1f%%", share))
	}
	pr := shareOf["pagerank"]
	t.Claim("table2.pagerank_lowest", pr == stats.Min(shares),
		"average offloaded: %.0f%% (paper: 92%%; pagerank lowest at 49.1%%)", stats.Mean(shares))
	t.Claim("table2.pagerank_band", pr >= 35 && pr <= 65, "")
	t.Claim("table2.full_offload", shareOf["compress"] >= 99 && shareOf["json_load_dump"] >= 99 &&
		shareOf["image_processing"] >= 99, "")
	hotSubset := true
	for _, fn := range []string{"float_operation", "pyaes"} {
		hotSubset = hotSubset && shareOf[fn] >= 85 && shareOf[fn] < 99.5
	}
	t.Claim("table2.hot_subset_keeps_fast_slice", hotSubset, "")
	return t, nil
}

// fig6Functions returns the five functions with the worst full-slow
// slowdown (the paper's Fig. 6 selection criterion), using the all-inputs
// analyses.
func fig6Functions(s *Suite) ([]*workload.Spec, error) {
	type ranked struct {
		spec *workload.Spec
		sd   float64
	}
	rs, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (ranked, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return ranked{}, err
		}
		return ranked{spec, b.analysis.FullSlowSlowdown}, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].sd > rs[j].sd })
	out := make([]*workload.Spec, 0, 5)
	for _, r := range rs[:5] {
		out = append(out, r.spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Fig6IncrementalBinOffload reproduces Fig. 6: for the five functions with
// the worst slowdown, how incrementally offloading bins (sorted by memory
// cost efficiency) moves slowdown and memory cost, for every input.
func Fig6IncrementalBinOffload(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Slowdown vs memory cost per offloaded bin, bins sorted by cost efficiency (Fig. 6)",
		Header: []string{"function", "input", "bins offloaded", "slowdown", "norm cost"},
	}
	specs, err := fig6Functions(s)
	if err != nil {
		return nil, err
	}
	// Each (function, input) bin sweep is independent: fan the 20 cells out
	// on the pool, fold the row blocks in (function, input) order.
	type cell struct {
		spec *workload.Spec
		lv   workload.Level
	}
	var cells []cell
	for _, spec := range specs {
		for _, lv := range AllLevels {
			cells = append(cells, cell{spec, lv})
		}
	}
	type point struct{ sd, cost float64 }
	blocks, err := par.Map(s.Pool(), cells, func(_ int, c cell) ([]point, error) {
		spec, lv := c.spec, c.lv
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return nil, err
		}
		a := b.analysis
		// Per-input baseline: only zero pages offloaded.
		baseline, err := s.execResident(spec, lv, s.BaseSeed+5, a.ZeroSlow, 1)
		if err != nil {
			return nil, err
		}
		var points []point
		cumulative := append([]guest.Region{}, a.ZeroSlow...)
		slowPages := a.ZeroSlowPages
		for k := 1; k <= len(a.Bins); k++ {
			cumulative = append(cumulative, a.Bins[k-1].Regions...)
			slowPages += a.Bins[k-1].Pages
			exec, err := s.execResident(spec, lv, s.BaseSeed+5, cumulative, 1)
			if err != nil {
				return nil, err
			}
			sd := float64(exec) / float64(baseline)
			if sd < 1 {
				sd = 1
			}
			points = append(points, point{sd, s.Core.Cost.Normalized(sd, slowPages, a.GuestPages)})
		}
		return points, nil
	})
	if err != nil {
		return nil, err
	}
	// Each series' slowdown never falls along the sweep (beyond noise); per
	// input, the five functions' fully offloaded points are summed.
	sweepHolds := len(specs) == 5
	var lastSD, lastCost [4]float64
	for i, points := range blocks {
		c := cells[i]
		prev := 0.0
		for k, p := range points {
			t.AddRow(c.spec.Name, c.lv, k+1, p.sd, p.cost)
			sweepHolds = sweepHolds && p.sd >= 1 && p.sd >= prev-0.03
			prev = p.sd
		}
		if len(points) > 0 {
			lastSD[i%len(AllLevels)] += points[len(points)-1].sd
			lastCost[i%len(AllLevels)] += points[len(points)-1].cost
		}
	}
	t.Claim("fig6.sweep_shape", sweepHolds, "")
	largest := func(v [4]float64) bool { return v[3] >= max(v[0], v[1], v[2]) }
	t.Claim("fig6.largest_input_most_slowdown", largest(lastSD),
		"larger inputs accumulate more slowdown, confirming the largest-input choice for bin profiling (§VI-C2)")
	t.Claim("fig6.largest_input_bounds_cost", largest(lastCost),
		"the largest input's memory cost upper-bounds the smaller inputs' costs")
	return t, nil
}

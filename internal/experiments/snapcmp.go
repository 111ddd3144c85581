package experiments

import (
	"math"

	"toss/internal/core"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/par"
	"toss/internal/stats"
	"toss/internal/workload"
)

// inputCost evaluates, for one execution input, the normalized memory cost
// an analysis' placement yields: measure the input's slowdown under the
// placement relative to all-DRAM, then apply Eq. 1.
func (s *Suite) inputCost(spec *workload.Spec, lv workload.Level, a *core.Analysis) (float64, float64, error) {
	fast, err := s.meanExecResident(spec, lv, s.BaseSeed+17, nil, 1)
	if err != nil {
		return 0, 0, err
	}
	slow := a.Placement.Regions(mem.Slow)
	tiered, err := s.meanExecResident(spec, lv, s.BaseSeed+17, slow, 1)
	if err != nil {
		return 0, 0, err
	}
	sd := tiered / fast
	if sd < 1 {
		sd = 1
	}
	return s.Core.Cost.Normalized(sd, guest.TotalPages(slow), a.GuestPages), sd, nil
}

// SnapshotCostVariance reproduces §VI-C3 ("Input IV vs. All Inputs"): how
// much the per-input memory cost differs between the tiered snapshot built
// from input-IV-only profiling and the one built from all inputs.
func SnapshotCostVariance(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "sec6c3a",
		Title:  "Memory cost variance: input-IV snapshot vs all-inputs snapshot (§VI-C3)",
		Header: []string{"function", "input", "cost (all)", "cost (IV)", "variance %"},
	}
	// Each function contributes an independent 4-row block (two builds plus
	// eight placement evaluations): fan out, fold in registry order.
	type specRes struct {
		rows                [][]any
		variances, filtered []float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		var sr specRes
		all, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return sr, err
		}
		ivOnly, err := s.buildFor(spec, LevelIVOnly)
		if err != nil {
			return sr, err
		}
		for _, lv := range AllLevels {
			cAll, _, err := s.inputCost(spec, lv, all.analysis)
			if err != nil {
				return sr, err
			}
			cIV, _, err := s.inputCost(spec, lv, ivOnly.analysis)
			if err != nil {
				return sr, err
			}
			v := math.Abs(cAll-cIV) / ((cAll + cIV) / 2) * 100
			sr.variances = append(sr.variances, v)
			// The paper excludes very short invocations and pagerank from
			// its filtered average.
			if spec.Name != "pagerank" && !shortRunning(spec, lv) {
				sr.filtered = append(sr.filtered, v)
			}
			sr.rows = append(sr.rows, []any{spec.Name, lv, cAll, cIV, v})
		}
		return sr, nil
	})
	if err != nil {
		return nil, err
	}
	var variances, variancesFiltered []float64
	for _, sr := range res {
		variances = append(variances, sr.variances...)
		variancesFiltered = append(variancesFiltered, sr.filtered...)
		for _, row := range sr.rows {
			t.AddRow(row...)
		}
	}
	// The simulator has less run-to-run noise than the paper's platform, so
	// the claims are that the input-IV snapshot generalizes at least as
	// well as the paper measured.
	mean, filtered := stats.Mean(variances), stats.Mean(variancesFiltered)
	t.Claim("sec6c3a.variance_within_paper", mean <= 7.2, "average cost variance: %.1f%% (paper: 7.2%%)", mean)
	t.Claim("sec6c3a.filtered_within_paper", filtered <= 2.4,
		"excluding short-running invocations and pagerank: %.1f%% (paper: 2.4%%)", filtered)
	return t, nil
}

// shortRunning mirrors the paper's "less than 10 ms" exclusion.
func shortRunning(spec *workload.Spec, lv workload.Level) bool {
	return (spec.Name == "float_operation" || spec.Name == "pyaes") && lv <= workload.II
}

// PlacementGeneralization reproduces §VI-C3 ("Input IV vs. Individual Input
// Placement"): the cost of using the input-IV-optimized bin placement for
// every input, versus re-optimizing the placement per input.
func PlacementGeneralization(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "sec6c3b",
		Title:  "Input-IV placement vs per-input optimal placement (§VI-C3)",
		Header: []string{"function", "input", "cost (IV placement)", "cost (per-input opt)", "diff %"},
	}
	// The per-input bin sweep is the suite's costliest inner loop (every bin
	// of every function re-measured on every input): fan the (function,
	// input) cells out on the pool, fold in (function, input) order.
	type cell struct {
		spec *workload.Spec
		lv   workload.Level
	}
	var cells []cell
	for _, spec := range workload.Registry() {
		for _, lv := range AllLevels {
			cells = append(cells, cell{spec, lv})
		}
	}
	type cellRes struct {
		row      []any
		d        float64
		filtered bool
	}
	res, err := par.Map(s.Pool(), cells, func(_ int, c cell) (cellRes, error) {
		spec, lv := c.spec, c.lv
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return cellRes{}, err
		}
		a := b.analysis
		cIV, _, err := s.inputCost(spec, lv, a)
		if err != nil {
			return cellRes{}, err
		}
		// Per-input optimum: sweep the same bins in the same order,
		// but score each configuration on this input.
		fast, err := s.meanExecResident(spec, lv, s.BaseSeed+17, nil, 1)
		if err != nil {
			return cellRes{}, err
		}
		best := math.Inf(1)
		cumulative := append([]guest.Region{}, a.ZeroSlow...)
		slowPages := a.ZeroSlowPages
		for k := 0; ; k++ {
			exec, err := s.meanExecResident(spec, lv, s.BaseSeed+17, cumulative, 1)
			if err != nil {
				return cellRes{}, err
			}
			sd := exec / fast
			if sd < 1 {
				sd = 1
			}
			if c := s.Core.Cost.Normalized(sd, slowPages, a.GuestPages); c < best {
				best = c
			}
			if k == len(a.Bins) {
				break
			}
			cumulative = append(cumulative, a.Bins[k].Regions...)
			slowPages += a.Bins[k].Pages
		}
		d := (cIV - best) / best * 100
		if d < 0 {
			d = 0
		}
		return cellRes{
			row:      []any{spec.Name, lv, cIV, best, d},
			d:        d,
			filtered: !shortRunning(spec, lv),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var diffs, diffsFiltered []float64
	for _, cr := range res {
		diffs = append(diffs, cr.d)
		if cr.filtered {
			diffsFiltered = append(diffsFiltered, cr.d)
		}
		t.AddRow(cr.row...)
	}
	mean, filtered := stats.Mean(diffs), stats.Mean(diffsFiltered)
	t.Claim("sec6c3b.diff_within_paper", mean <= 6.1, "average difference: %.1f%% (paper: 6.1%%)", mean)
	t.Claim("sec6c3b.filtered_within_paper", filtered <= 3.3,
		"excluding short-running invocations: %.1f%% (paper: 3.3%%)", filtered)
	return t, nil
}

package experiments

import (
	"fmt"

	"toss/internal/damon"
	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/par"
	"toss/internal/platform"
	"toss/internal/stats"
	"toss/internal/workload"
	"toss/internal/wstrack"
)

// Table1Inventory reproduces Table I: the functions, their memory
// configurations, input types, and inputs.
func Table1Inventory(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Functions, memory configurations and inputs (Table I)",
		Header: []string{"name", "description", "memory", "input type", "inputs I..IV"},
	}
	reg := workload.Registry()
	for _, spec := range reg {
		t.AddRow(spec.Name, spec.Description,
			fmt.Sprintf("%d MB", spec.MemBytes>>20),
			spec.InputType,
			fmt.Sprintf("%s | %s | %s | %s",
				spec.InputLabels[0], spec.InputLabels[1], spec.InputLabels[2], spec.InputLabels[3]))
	}
	t.Claim("table1.inventory", len(reg) == 10 && reg[7].Name == "pagerank" && reg[7].MemBytes == 1024<<20, "")
	return t, nil
}

// fig1Function is the workload Fig. 1 characterizes.
const fig1Function = "json_load_dump"

// Fig1WorkingSetCharacterization reproduces Fig. 1: how userfaultfd's binary
// working set compares with DAMON's graded view, per input. The paper's
// observations — access counts grow with the input, and each input produces
// a significantly different pattern — appear as growing footprints, growing
// max counts, and distinct region structure.
func Fig1WorkingSetCharacterization(s *Suite) (*Table, error) {
	spec, ok := workload.ByName(fig1Function)
	if !ok {
		return nil, fmt.Errorf("fig1: unknown function %s", fig1Function)
	}
	layout, err := spec.Layout()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig1",
		Title: "Working set characterization: userfaultfd vs DAMON (" + fig1Function + ")",
		Header: []string{"input", "uffd WS (MB)", "mincore WS (MB)", "damon regions",
			"mean acc/page", "max acc/page", "count buckets"},
	}
	grows, covers := true, true
	var prevUffd int64
	var lastBuckets int
	for _, lv := range AllLevels {
		tr, err := spec.Trace(lv, s.BaseSeed)
		if err != nil {
			return nil, err
		}
		vm := microvm.NewBooted(s.Core.VM, layout)
		vm.SetLabel(spec.Name)
		res, err := vm.Run(tr)
		if err != nil {
			return nil, err
		}
		uffdPages := wstrack.WorkingSetPages(tr)
		mincorePages := guest.TotalPages(wstrack.WorkingSetMincore(tr, 16, layout.TotalPages))
		pattern := s.Core.Damon.Profile(res.Truth, layout.TotalPages, s.BaseSeed)
		var maxCount, sumCount, pages int64
		buckets := map[int]bool{}
		for _, rec := range pattern.Records {
			if rec.NrAccesses > maxCount {
				maxCount = rec.NrAccesses
			}
			sumCount += rec.NrAccesses * rec.Region.Pages
			pages += rec.Region.Pages
			buckets[damon.Bucket(rec.NrAccesses)] = true
		}
		mean := int64(0)
		if pages > 0 {
			mean = sumCount / pages
		}
		t.AddRow(lv, pageMB(uffdPages), pageMB(mincorePages),
			len(pattern.Records), mean, maxCount, len(buckets))
		grows = grows && uffdPages >= prevUffd
		covers = covers && mincorePages >= uffdPages
		prevUffd, lastBuckets = uffdPages, len(buckets)
	}
	t.Claim("fig1.uffd_ws_grows", grows, "")
	t.Claim("fig1.damon_grades", lastBuckets >= 2,
		"uffd reports a binary touched-set; DAMON grades the same pages into distinct access-count buckets (Obs. #4)")
	t.Claim("fig1.mincore_covers_uffd", covers, "mincore inflates the working set via host readahead (§III-C)")
	return t, nil
}

func pageMB(pages int64) string {
	return fmt.Sprintf("%.1f", float64(pages*guest.PageSize)/(1<<20))
}

// Fig2FullSlowTierSlowdown reproduces Fig. 2: the normalized slowdown of
// running each function fully in the slow tier, per input, averaged over
// iterations. The 10x4 (function, input) matrix fans out per function on
// the suite's pool; rows and aggregates are folded in registry order so the
// table is byte-identical to a serial run.
func Fig2FullSlowTierSlowdown(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "Normalized slowdown fully offloaded to the slow tier (Fig. 2)",
		Header: []string{"function", "input I", "input II", "input III", "input IV"},
	}
	type specRes struct {
		row []any
		sds []float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		layout, err := spec.Layout()
		if err != nil {
			return specRes{}, err
		}
		row := []any{spec.Name}
		var sds []float64
		for _, lv := range AllLevels {
			fast, err := s.meanExecResident(spec, lv, s.BaseSeed, nil, 1)
			if err != nil {
				return specRes{}, err
			}
			slow, err := s.meanExecResident(spec, lv, s.BaseSeed, []guest.Region{{Start: 0, Pages: layout.TotalPages}}, 1)
			if err != nil {
				return specRes{}, err
			}
			sd := slow / fast
			sds = append(sds, sd)
			row = append(row, sd)
		}
		return specRes{row: row, sds: sds}, nil
	})
	if err != nil {
		return nil, err
	}
	var all []float64
	sdOf := map[string][]float64{}
	for i, r := range res {
		all = append(all, r.sds...)
		sdOf[workload.Registry()[i].Name] = r.sds
		t.AddRow(r.row...)
	}
	t.AddNote("mean over all functions/inputs: %.2fx; max: %.2fx", stats.Mean(all), stats.Max(all))
	mostSensitive := true
	for _, sds := range sdOf {
		mostSensitive = mostSensitive && sds[3] <= sdOf["pagerank"][3]
	}
	t.Claim("fig2.pagerank_most_sensitive", mostSensitive, "")
	lr := sdOf["lr_serving"]
	t.Claim("fig2.obs1_obs2", sdOf["compress"][3] <= 1.15 && lr[3] > lr[0]*1.05,
		"compute-bound functions run in the slow tier nearly for free (Obs. #1); others vary with input (Obs. #2)")
	return t, nil
}

// Fig3ReapInputMismatch reproduces Fig. 3: REAP's invocation time when the
// snapshot input differs from the execution input, normalized to the
// matched-input case. For each execution input we report the mean and max
// over all snapshot inputs.
func Fig3ReapInputMismatch(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "REAP slowdown of mismatched snapshot inputs per execution input (Fig. 3)",
		Header: []string{"function", "exec input", "mean norm", "max norm"},
	}
	// The 4x4 snapshot-x-exec combos are independent per function: fan the
	// functions out on the pool, fold rows in registry order.
	type specRes struct {
		rows     [][]any
		norms    []float64
		max      float64
		rowsHold bool
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		sr := specRes{rowsHold: true}
		// One REAP function per snapshot input.
		fns := make(map[workload.Level]*platform.Function)
		for _, snapLv := range AllLevels {
			fn, err := s.reapFunction(spec, snapLv, platform.ModeREAP)
			if err != nil {
				return sr, err
			}
			fns[snapLv] = fn
		}
		for _, execLv := range AllLevels {
			// Matched baseline: snapshot input == execution input.
			base, err := reapMeanInvocation(s, fns[execLv], execLv)
			if err != nil {
				return sr, err
			}
			var norms []float64
			for _, snapLv := range AllLevels {
				inv, err := reapMeanInvocation(s, fns[snapLv], execLv)
				if err != nil {
					return sr, err
				}
				norms = append(norms, inv/base)
			}
			mean, max := stats.Mean(norms), stats.Max(norms)
			sr.norms = append(sr.norms, norms...)
			if max > sr.max {
				sr.max = max
			}
			// A mismatched snapshot never speeds REAP up beyond noise, and
			// the worst case bounds the mean.
			sr.rowsHold = sr.rowsHold && mean >= 0.97 && max >= mean-1e-9
			sr.rows = append(sr.rows, []any{spec.Name, execLv, mean, max})
		}
		return sr, nil
	})
	if err != nil {
		return nil, err
	}
	var overall []float64
	var overallMax float64
	rowsHold := true
	for _, sr := range res {
		overall = append(overall, sr.norms...)
		if sr.max > overallMax {
			overallMax = sr.max
		}
		rowsHold = rowsHold && sr.rowsHold
		for _, row := range sr.rows {
			t.AddRow(row...)
		}
	}
	t.Claim("fig3.mismatch_never_faster", rowsHold, "")
	mean := stats.Mean(overall)
	t.Claim("fig3.mismatch_slows_reap", mean > 1,
		"average slowdown over all cases: %.0f%%; worst case: %.2fx (paper: 26%% avg, up to 3.47x)",
		(mean-1)*100, overallMax)
	return t, nil
}

// reapFunction returns a function served by mode (REAP or FaaSnap) whose
// first invocation, on input snapLv, captured its snapshot and working set.
func (s *Suite) reapFunction(spec *workload.Spec, snapLv workload.Level, mode platform.Mode) (*platform.Function, error) {
	fn, err := platform.NewFunction(s.Core, spec, mode)
	if err != nil {
		return nil, err
	}
	if rec := fn.Cold(snapLv, s.BaseSeed, 1, nil); rec.Err != nil {
		return nil, rec.Err
	}
	return fn, nil
}

// reapMeanInvocation averages REAP's total invocation time (setup + exec)
// over the suite's iterations with distinct seeds.
func reapMeanInvocation(s *Suite, fn *platform.Function, lv workload.Level) (float64, error) {
	var sum float64
	for it := 0; it < s.Iterations; it++ {
		rec := fn.Cold(lv, s.BaseSeed+int64(it)*31+7, 1, nil)
		if rec.Err != nil {
			return 0, rec.Err
		}
		sum += float64(rec.Total())
	}
	return sum / float64(s.Iterations), nil
}

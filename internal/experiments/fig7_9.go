package experiments

import (
	"fmt"

	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/par"
	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/stats"
	"toss/internal/workload"
	"toss/internal/wstrack"
)

// dramInvocation measures the DRAM baseline the paper normalizes against:
// the function running fully resident in DRAM (the Fig. 2 DRAM case) with
// only the constant VM-load/mmap restore cost as setup. This is the ideal
// single-tier invocation — both TOSS and REAP pay extra relative to it
// (demand faults, prefetch time, slow-tier latency).
func (s *Suite) dramInvocation(spec *workload.Spec, execLv workload.Level, seed int64, conc int) (setup, exec simtime.Duration, err error) {
	exec, err = s.execResident(spec, execLv, seed, nil, conc)
	if err != nil {
		return 0, 0, err
	}
	return s.Core.VM.VMLoadBase + s.Core.VM.MmapCost, exec, nil
}

// Fig7SetupTime reproduces Fig. 7: setup time of REAP (min/avg/max over
// snapshot inputs) and TOSS, normalized to the DRAM lazy-restore setup.
func Fig7SetupTime(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Setup time normalized to DRAM snapshot setup (Fig. 7)",
		Header: []string{"function", "dram (ms)", "toss", "reap min", "reap avg", "reap max"},
	}
	type specRes struct {
		row          []any
		tossN, ratio float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return specRes{}, err
		}
		layout, err := spec.Layout()
		if err != nil {
			return specRes{}, err
		}
		dram := float64(s.Core.VM.VMLoadBase + s.Core.VM.MmapCost)
		tossSetup := float64(microvm.RestoreTiered(s.Core.VM, layout, b.tiered, 1).SetupTime())

		var reapSetups []float64
		for _, snapLv := range AllLevels {
			fn, err := s.reapFunction(spec, snapLv, platform.ModeREAP)
			if err != nil {
				return specRes{}, err
			}
			rec := fn.Cold(snapLv, s.BaseSeed+1, 1, nil)
			if rec.Err != nil {
				return specRes{}, rec.Err
			}
			reapSetups = append(reapSetups, float64(rec.Setup))
		}
		return specRes{
			row: []any{spec.Name,
				fmt.Sprintf("%.2f", dram/1e6),
				tossSetup / dram,
				stats.Min(reapSetups) / dram,
				stats.Mean(reapSetups) / dram,
				stats.Max(reapSetups) / dram},
			tossN: tossSetup / dram,
			ratio: stats.Max(reapSetups) / tossSetup,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var worstRatio float64
	tossFlat, reapAbove := true, true
	for _, sr := range res {
		if sr.ratio > worstRatio {
			worstRatio = sr.ratio
		}
		tossFlat = tossFlat && sr.tossN <= 3
		reapAbove = reapAbove && sr.ratio >= 1
		t.AddRow(sr.row...)
	}
	t.Claim("fig7.toss_setup_constant", tossFlat, "TOSS setup is constant per function (one mmap per layout region)")
	t.Claim("fig7.reap_max_above_toss", reapAbove,
		"REAP setup grows with the recorded WS; worst REAP/TOSS ratio: %.0fx (paper: up to 52x)", worstRatio)
	return t, nil
}

// Fig8InvocationTime reproduces Fig. 8: total invocation time (setup +
// execution) for TOSS (tiered snapshot, each exec input) and REAP (all
// snapshot x exec input combos), normalized to the matched DRAM invocation.
func Fig8InvocationTime(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Total invocation time normalized to DRAM invocation (Fig. 8)",
		Header: []string{"function", "toss mean", "toss max", "reap mean", "reap max"},
	}
	// The DRAM baselines, TOSS runs, and 4x4 REAP combo matrix are all
	// per-function: fan functions out, fold in registry order.
	type specRes struct {
		row       []any
		tossNorms []float64
		reapNorms []float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return specRes{}, err
		}
		layout, err := spec.Layout()
		if err != nil {
			return specRes{}, err
		}
		// DRAM baseline per exec input (matched snapshot).
		dram := map[workload.Level]float64{}
		for _, lv := range AllLevels {
			var sum float64
			for it := 0; it < s.Iterations; it++ {
				setup, exec, err := s.dramInvocation(spec, lv, s.BaseSeed+int64(it)*31+3, 1)
				if err != nil {
					return specRes{}, err
				}
				sum += float64(setup + exec)
			}
			dram[lv] = sum / float64(s.Iterations)
		}

		// TOSS: tiered snapshot, each exec input.
		var tossNorms []float64
		for _, lv := range AllLevels {
			var sum float64
			for it := 0; it < s.Iterations; it++ {
				tr, err := spec.Trace(lv, s.BaseSeed+int64(it)*31+3)
				if err != nil {
					return specRes{}, err
				}
				vm := microvm.RestoreTiered(s.Core.VM, layout, b.tiered, 1)
				vm.SetRecordTruth(false)
				r, err := vm.Run(tr)
				if err != nil {
					return specRes{}, err
				}
				sum += float64(r.Total())
			}
			tossNorms = append(tossNorms, sum/float64(s.Iterations)/dram[lv])
		}

		// REAP: every snapshot x exec combo.
		var reapNorms []float64
		for _, snapLv := range AllLevels {
			fn, err := s.reapFunction(spec, snapLv, platform.ModeREAP)
			if err != nil {
				return specRes{}, err
			}
			for _, execLv := range AllLevels {
				inv, err := reapMeanInvocation(s, fn, execLv)
				if err != nil {
					return specRes{}, err
				}
				reapNorms = append(reapNorms, inv/dram[execLv])
			}
		}
		return specRes{
			row: []any{spec.Name, stats.Mean(tossNorms), stats.Max(tossNorms),
				stats.Mean(reapNorms), stats.Max(reapNorms)},
			tossNorms: tossNorms,
			reapNorms: reapNorms,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var tossAll, reapAll []float64
	for _, sr := range res {
		tossAll = append(tossAll, sr.tossNorms...)
		reapAll = append(reapAll, sr.reapNorms...)
		t.AddRow(sr.row...)
	}
	tossMean, tossMax := stats.Mean(tossAll), stats.Max(tossAll)
	reapMean, reapMax := stats.Mean(reapAll), stats.Max(reapAll)
	t.Claim("fig8.toss_avg_below_reap", tossMean < reapMean,
		"TOSS: %.2fx avg, %.2fx max (paper: 1.78x avg, up to 3.8x)", tossMean, tossMax)
	t.Claim("fig8.reap_worst_above_toss", reapMax > tossMax,
		"REAP: %.2fx avg, %.2fx max (paper: 2.5x avg, up to 13x)", reapMean, reapMax)
	return t, nil
}

// fig9Concurrency are the paper's concurrency levels (20 cores, no HT).
var fig9Concurrency = []int{1, 5, 10, 20}

// Fig9Scalability reproduces Fig. 9: execution-time slowdown at 1/5/10/20
// concurrent invocations of input IV, normalized to the DRAM execution at
// the same concurrency, for TOSS, REAP Best (matched snapshot input) and
// REAP Worst (snapshot input I). Every column times the restore mechanism
// alone, on a machine restored from a captured snapshot, with no fault
// query of its own.
func Fig9Scalability(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Execution slowdown under concurrency, input IV, normalized to DRAM (Fig. 9)",
		Header: []string{"function", "conc", "toss", "reap best", "reap worst"},
	}
	// The concurrency ladder is independent per function: fan functions out,
	// fold the 4-row blocks in registry order, so the table is the same at
	// any pool width (Suite.Pool serializes only for a suite-level fault
	// injector).
	type specRes struct {
		rows            [][]any
		toss20, worst20 float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		var sr specRes
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return sr, err
		}
		layout, err := spec.Layout()
		if err != nil {
			return sr, err
		}
		// REAP Best (input IV) and Worst (input I) restore the snapshot and
		// working set REAP's first invocation captures on that input.
		captureREAP := func(lv workload.Level) (*snapshot.Single, []guest.Region, error) {
			tr, err := spec.Trace(lv, s.BaseSeed)
			if err != nil {
				return nil, nil, err
			}
			_, snap, err := microvm.Capture(s.Core.VM, layout, spec.Name, tr, nil)
			return snap, wstrack.WorkingSet(tr), err
		}
		bestSnap, bestWS, err := captureREAP(workload.IV)
		if err != nil {
			return sr, err
		}
		worstSnap, worstWS, err := captureREAP(workload.I)
		if err != nil {
			return sr, err
		}

		for _, conc := range fig9Concurrency {
			seed := s.BaseSeed + int64(conc)*101
			tr, err := spec.Trace(workload.IV, seed)
			if err != nil {
				return sr, err
			}
			runExec := func(vm *microvm.Machine) (float64, error) {
				vm.SetRecordTruth(false)
				res, err := vm.Run(tr)
				if err != nil {
					return 0, err
				}
				return float64(res.Exec), nil
			}
			_, dramExecD, err := s.dramInvocation(spec, workload.IV, seed, conc)
			if err != nil {
				return sr, err
			}
			dramExec := float64(dramExecD)
			tossExec, err := runExec(microvm.RestoreTiered(s.Core.VM, layout, b.tiered, conc))
			if err != nil {
				return sr, err
			}
			bestExec, err := runExec(microvm.RestoreREAP(s.Core.VM, layout, bestSnap, bestWS, conc))
			if err != nil {
				return sr, err
			}
			worstExec, err := runExec(microvm.RestoreREAP(s.Core.VM, layout, worstSnap, worstWS, conc))
			if err != nil {
				return sr, err
			}
			tossN, bestN, worstN := tossExec/dramExec, bestExec/dramExec, worstExec/dramExec
			if conc == 20 {
				sr.toss20, sr.worst20 = tossN, worstN
			}
			sr.rows = append(sr.rows, []any{spec.Name, conc, tossN, bestN, worstN})
		}
		return sr, nil
	})
	if err != nil {
		return nil, err
	}
	var toss20, worst20 []float64
	var worstMax float64
	for _, sr := range res {
		toss20 = append(toss20, sr.toss20)
		worst20 = append(worst20, sr.worst20)
		if sr.worst20 > worstMax {
			worstMax = sr.worst20
		}
		for _, row := range sr.rows {
			t.AddRow(row...)
		}
	}
	t.Claim("fig9.toss_below_reap_worst", stats.Mean(toss20) < stats.Mean(worst20) && stats.Max(toss20) < worstMax,
		"at 20 concurrent: TOSS %.2fx avg (paper: 1.95x, up to 4.2x); REAP Worst %.2fx avg, %.2fx max (paper: 3.79x avg, up to 19x)",
		stats.Mean(toss20), stats.Mean(worst20), worstMax)
	return t, nil
}

package experiments

import (
	"fmt"

	"toss/internal/par"
	"toss/internal/reap"
	"toss/internal/stats"
	"toss/internal/workload"
)

// ExtFaaSnapInflation quantifies §III-C's mincore critique: FaaSnap's
// working sets are inflated by host readahead, so its setup prefetches more
// than REAP's for the same snapshot input, buying slightly fewer residual
// faults. TOSS sidesteps the trade entirely with graded DAMON profiles.
func ExtFaaSnapInflation(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "ext6",
		Title: "FaaSnap's mincore inflation vs REAP's uffd working sets (§III-C)",
		Header: []string{"function", "uffd WS (MB)", "mincore WS (MB)", "inflation",
			"reap setup (ms)", "faasnap setup (ms)", "reap faults", "faasnap faults"},
	}
	type specRes struct {
		row       []any
		inflation float64
		// covers: mincore's WS covers uffd's; faultsLess: FaaSnap faults no
		// more than REAP and prefetches at least as long.
		covers, faultsLess bool
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		rm, err := reap.NewManager(s.Core.VM, spec)
		if err != nil {
			return specRes{}, err
		}
		fm, err := reap.NewFaaSnapManager(s.Core.VM, spec)
		if err != nil {
			return specRes{}, err
		}
		// Snapshot input II, execution input III: a realistic mismatch.
		if _, err := rm.Invoke(workload.II, s.BaseSeed, 1); err != nil {
			return specRes{}, err
		}
		if _, err := fm.Invoke(workload.II, s.BaseSeed, 1); err != nil {
			return specRes{}, err
		}
		rRes, err := rm.Invoke(workload.III, s.BaseSeed+5, 1)
		if err != nil {
			return specRes{}, err
		}
		fRes, err := fm.Invoke(workload.III, s.BaseSeed+5, 1)
		if err != nil {
			return specRes{}, err
		}
		inflation := fm.InflationFactor(rm.WorkingSetPages())
		return specRes{
			row: []any{spec.Name,
				pageMB(rm.WorkingSetPages()), pageMB(fm.WorkingSetPages()),
				fmt.Sprintf("%.2fx", inflation),
				fmt.Sprintf("%.1f", rRes.Setup.Milliseconds()),
				fmt.Sprintf("%.1f", fRes.Setup.Milliseconds()),
				rRes.MajorFaults, fRes.MajorFaults},
			inflation:  inflation,
			covers:     fm.WorkingSetPages() >= rm.WorkingSetPages(),
			faultsLess: fRes.MajorFaults <= rRes.MajorFaults && fRes.Setup >= rRes.Setup,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var inflations []float64
	covers, faultsLess := true, true
	for _, sr := range res {
		inflations = append(inflations, sr.inflation)
		covers = covers && sr.covers
		faultsLess = faultsLess && sr.faultsLess
		t.AddRow(sr.row...)
	}
	t.Claim("ext6.mincore_covers_uffd", covers,
		"average mincore inflation: %.2fx — prefetched-but-untouched pages billed as working set (§III-C)", stats.Mean(inflations))
	t.AddNote("inflation is per touched run (readahead overshoot), so these coarse-grained traces inflate mildly; scattered small-object heaps inflate far more")
	t.Claim("ext6.faasnap_faults_less", faultsLess, "FaaSnap never faults more than REAP but always prefetches at least as much")
	return t, nil
}

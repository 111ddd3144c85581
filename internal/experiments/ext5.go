package experiments

import (
	"fmt"
	"sort"

	"toss/internal/microvm"
	"toss/internal/par"
	"toss/internal/workload"
)

// ExtMemoryIntensity reproduces the paper's §VI-C1 methodology note: "We
// use perf to measure the memory intensiveness by collecting the hardware
// counters that measure the fraction of cycles stalled due to outstanding
// Last-Level-Cache miss demand loads." The simulator's meter exposes the
// same stall fraction; this table ranks the functions by it and joins the
// offload outcome, making the pagerank explanation quantitative.
func ExtMemoryIntensity(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "ext5",
		Title: "Memory intensity (LLC-stall fraction) vs offload outcome (§VI-C1)",
		Header: []string{"function", "stall %", "exec IV (ms)", "footprint (MB)",
			"slow %", "min cost"},
	}
	type row struct {
		name      string
		stall     float64
		execMS    float64
		footMB    float64
		slowShare float64
		cost      float64
	}
	rows, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (row, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return row{}, err
		}
		layout, err := spec.Layout()
		if err != nil {
			return row{}, err
		}
		tr, err := spec.Trace(workload.IV, s.BaseSeed+41)
		if err != nil {
			return row{}, err
		}
		vm := microvm.NewResident(s.Core.VM, layout, nil, 1)
		vm.SetLabel(spec.Name)
		vm.SetRecordTruth(false)
		res, err := vm.Run(tr)
		if err != nil {
			return row{}, err
		}
		return row{
			name:      spec.Name,
			stall:     res.Meter.StallFraction() * 100,
			execMS:    res.Exec.Milliseconds(),
			footMB:    float64(tr.FootprintPages()) * 4096 / (1 << 20),
			slowShare: b.analysis.SlowShare() * 100,
			cost:      b.analysis.MinCost(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// The ranking sort is stable across pool sizes: rows arrive in registry
	// order and stall fractions are deterministic.
	sort.Slice(rows, func(i, j int) bool { return rows[i].stall > rows[j].stall })
	for _, r := range rows {
		t.AddRow(r.name,
			fmt.Sprintf("%.1f%%", r.stall),
			fmt.Sprintf("%.1f", r.execMS),
			fmt.Sprintf("%.0f", r.footMB),
			fmt.Sprintf("%.1f%%", r.slowShare),
			r.cost)
	}
	bottoms := true
	for _, r := range rows {
		bottoms = bottoms && r.slowShare >= rows[0].slowShare
	}
	t.Claim("ext5.pagerank_tops_stall", rows[0].name == "pagerank" && bottoms,
		"pagerank tops the stall ranking and bottoms the offload share — the §VI-C1 causal link")
	t.AddNote("stall fraction is the simulator's equivalent of perf's cycle-stall LLC-miss counters")
	return t, nil
}

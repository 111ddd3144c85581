package experiments

import (
	"fmt"

	"toss/internal/fleet"
	"toss/internal/guest"
	"toss/internal/par"
	"toss/internal/stats"
	"toss/internal/workload"
)

// ExtPackingDensity turns the paper's motivation — DRAM is 40-50% of server
// cost (§I, §III) — into host economics: how many warm copies of each
// function one of the paper's servers (96 GB DRAM + 768 GB PMem) holds when
// VMs are tiered by TOSS, versus the same server using only its DRAM.
func ExtPackingDensity(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "ext7",
		Title: "Warm-VM packing density per host: DRAM-only vs TOSS tiers (§I motivation)",
		Header: []string{"function", "resident (MB)", "fast (MB)", "slow (MB)",
			"dram-only VMs/host", "tiered VMs/host", "gain"},
	}
	tieredHost := fleet.PaperHost()
	dramHost := fleet.DRAMOnlyHost()
	type specRes struct {
		row  []any
		gain float64
	}
	res, err := par.Map(s.Pool(), workload.Registry(), func(_ int, spec *workload.Spec) (specRes, error) {
		b, err := s.buildFor(spec, AllLevels)
		if err != nil {
			return specRes{}, err
		}
		ts := b.tiered
		fastBytes := int64(len(ts.FastMem.Pages)) * guest.PageSize
		slowBytes := int64(len(ts.SlowMem.Pages)) * guest.PageSize
		resident := fastBytes + slowBytes
		dramVM := fleet.VMFootprint{Function: spec.Name, FastBytes: resident}
		tieredVM := fleet.VMFootprint{Function: spec.Name, FastBytes: fastBytes, SlowBytes: slowBytes}
		dramN := dramHost.MaxResident(dramVM)
		tieredN := tieredHost.MaxResident(tieredVM)
		gain := fleet.DensityGain(tieredHost, dramHost, tieredVM, dramVM)
		return specRes{
			row: []any{spec.Name,
				fmt.Sprintf("%.0f", float64(resident)/(1<<20)),
				fmt.Sprintf("%.0f", float64(fastBytes)/(1<<20)),
				fmt.Sprintf("%.0f", float64(slowBytes)/(1<<20)),
				dramN, tieredN, fmt.Sprintf("%.1fx", gain)},
			gain: gain,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var gains []float64
	for _, sr := range res {
		gains = append(gains, sr.gain)
		t.AddRow(sr.row...)
	}
	mean, err := stats.GeoMean(gains)
	if err != nil {
		return nil, err
	}
	t.Claim("ext7.tiering_packs_denser", stats.Min(gains) >= 1,
		"geometric-mean density gain: %.1fx warm VMs per host — the fleet-level payoff of offloading 92%% of memory", mean)
	t.AddNote("host: 96 GB DRAM + 768 GB PMem (the paper's server); DRAM-only uses the same server's DRAM alone")
	return t, nil
}

package mem

import "toss/internal/simtime"

// Technology pairs the paper argues TOSS generalizes to (§III, §VII-B):
// the design works "with any memory technology as fast and slow tiers".
// Each preset keeps the DefaultConfig DRAM numbers for whichever side is
// DRAM and swaps the other side's latencies for published figures of the
// named technology. The matching cost ratio to use with costmodel.WithRatio
// is returned alongside.

// The calibrated per-line costs of each technology.
var (
	// dram is DDR4, the paper's fast tier (see DefaultConfig).
	dram = TierSpec{
		ReadSeq:        5 * simtime.Nanosecond,
		ReadRand:       80 * simtime.Nanosecond,
		WriteSeq:       6 * simtime.Nanosecond,
		WriteRand:      90 * simtime.Nanosecond,
		ContentionBeta: 0.004,
	}
	// optane is Intel Optane DC PMem, the paper's slow tier.
	optane = TierSpec{
		ReadSeq:        15 * simtime.Nanosecond,
		ReadRand:       300 * simtime.Nanosecond,
		WriteSeq:       45 * simtime.Nanosecond,
		WriteRand:      500 * simtime.Nanosecond,
		ContentionBeta: 0.05,
	}
	// cxl is DDR4 behind a CXL hop (§III): ~2x load latency, near-DRAM
	// bandwidth, symmetric writes, milder contention.
	cxl = TierSpec{
		ReadSeq:        8 * simtime.Nanosecond,
		ReadRand:       170 * simtime.Nanosecond,
		WriteSeq:       10 * simtime.Nanosecond,
		WriteRand:      180 * simtime.Nanosecond,
		ContentionBeta: 0.02,
	}
	// nvme is NVMe-class storage memory (TMO-style offloading): very cheap,
	// very slow — microsecond-class random access.
	nvme = TierSpec{
		ReadSeq:        40 * simtime.Nanosecond,
		ReadRand:       1500 * simtime.Nanosecond,
		WriteSeq:       80 * simtime.Nanosecond,
		WriteRand:      2500 * simtime.Nanosecond,
		ContentionBeta: 0.12,
	}
	// hbm is HBM/GPU memory, faster than DRAM (§VII-B's accelerator-memory
	// direction).
	hbm = TierSpec{
		ReadSeq:        2 * simtime.Nanosecond,
		ReadRand:       60 * simtime.Nanosecond,
		WriteSeq:       2 * simtime.Nanosecond,
		WriteRand:      65 * simtime.Nanosecond,
		ContentionBeta: 0.002,
	}
)

// Preset is a named two-tier technology combination.
type Preset struct {
	// Name identifies the combination ("dram+optane", ...).
	Name string
	// Mem is the memory model: a two-level hierarchy whose tiers are named
	// "fast" and "slow".
	Mem Hierarchy
	// CostRatio is the fast:slow per-GB price ratio public data suggests.
	CostRatio float64
}

// Presets returns the built-in technology combinations.
func Presets() []Preset {
	return []Preset{
		// The paper's platform: DDR4 DRAM over Optane DC PMem.
		{Name: "dram+optane", Mem: DefaultConfig(), CostRatio: 2.5},
		// DDR5 over CXL-attached DDR4 (§III).
		{Name: "dram+cxl", Mem: twoLevel(dram, cxl), CostRatio: 1.5},
		// DRAM over NVMe-class storage memory.
		{Name: "dram+nvme", Mem: twoLevel(dram, nvme), CostRatio: 10},
		// HBM as the small fast tier over plain DRAM as the capacity tier.
		{Name: "hbm+dram", Mem: twoLevel(hbm, dram), CostRatio: 4},
	}
}

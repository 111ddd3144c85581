package mem

import (
	"fmt"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/simtime"
)

// TierDef is one level of a memory hierarchy: the per-line access costs of
// the technology plus the provisioning and migration parameters the
// background migration engine (internal/migrate) needs.
type TierDef struct {
	// Name identifies the tier ("fast", "slow", "dram", "cxl", ...).
	Name string
	// Spec gives the per-line access costs and contention sensitivity.
	Spec TierSpec
	// CapacityPages is the tier's provisioned size. On every tier but the
	// last a non-positive capacity means the tier is absent (zero pages fit
	// — the zero-size-middle-tier degenerate case); on the last tier it
	// means unbounded, the object-store convention.
	CapacityPages int64
	// CostPerPage is the tier's relative $ cost per page-month, normalized
	// to DRAM = 1. Memory-cost axes (ext11, TIERS.md) sum
	// occupancy x CostPerPage over the hierarchy.
	CostPerPage float64
	// PromoteBytesPerSec is the bandwidth available for filling this tier
	// from a slower one (the write side of a promotion into this tier).
	PromoteBytesPerSec int64
	// DemoteBytesPerSec is the bandwidth available for filling this tier
	// from a faster one (the write side of a demotion into this tier).
	DemoteBytesPerSec int64
}

// Hierarchy is the memory model: an ordered list of tiers, fastest first,
// sharing one CPU-cache-hit cost. Levels are indexed 0 (fastest, most
// expensive) to Levels()-1 (slowest, cheapest).
type Hierarchy struct {
	// CacheHit is the per-line cost of a touch served by the CPU caches,
	// identical for all tiers.
	CacheHit simtime.Duration
	// Tiers are the levels, fastest first.
	Tiers []TierDef
}

// Clone returns a deep copy whose Tiers slice is independent of the
// receiver's, so callers can resize capacities without aliasing the
// original (Hierarchy values otherwise share their backing array).
func (h Hierarchy) Clone() Hierarchy {
	out := h
	out.Tiers = append([]TierDef(nil), h.Tiers...)
	return out
}

// Levels returns the number of tiers.
func (h Hierarchy) Levels() int { return len(h.Tiers) }

// Bottom returns the index of the slowest tier.
func (h Hierarchy) Bottom() int { return len(h.Tiers) - 1 }

// Validate reports whether the hierarchy is usable.
func (h Hierarchy) Validate() error {
	if len(h.Tiers) < 2 || len(h.Tiers) > MaxLevels {
		return fmt.Errorf("mem: hierarchy needs 2..%d tiers, have %d", MaxLevels, len(h.Tiers))
	}
	seen := make(map[string]bool, len(h.Tiers))
	for i, t := range h.Tiers {
		if t.Name == "" {
			return fmt.Errorf("mem: tier %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("mem: duplicate tier name %q", t.Name)
		}
		seen[t.Name] = true
		if t.CostPerPage < 0 {
			return fmt.Errorf("mem: tier %q has negative CostPerPage", t.Name)
		}
	}
	return nil
}

// Capacity returns the number of pages that fit in a level: the provisioned
// capacity, or MaxInt64-like unbounded semantics for the bottom tier.
func (h Hierarchy) Capacity(level int) int64 {
	c := h.Tiers[level].CapacityPages
	if c <= 0 {
		if level == h.Bottom() {
			return 1<<62 - 1 // effectively unbounded
		}
		return 0
	}
	return c
}

// Unbounded reports whether a level holds any number of pages (the bottom
// tier with non-positive CapacityPages).
func (h Hierarchy) Unbounded(level int) bool {
	return level == h.Bottom() && h.Tiers[level].CapacityPages <= 0
}

// ContentionFactor returns the latency multiplier a level experiences when
// shared by `concurrency` simultaneous invocations (>= 1).
func (h Hierarchy) ContentionFactor(level, concurrency int) float64 {
	if concurrency < 1 {
		concurrency = 1
	}
	return 1 + h.Tiers[level].Spec.ContentionBeta*float64(concurrency-1)
}

// LineCost returns the effective per-line cost, in virtual nanoseconds, of a
// miss served by a level with the given stride/kind under the given
// concurrency.
func (h Hierarchy) LineCost(level int, p access.Pattern, k access.Kind, concurrency int) float64 {
	return float64(h.Tiers[level].Spec.lineCost(p, k)) * h.ContentionFactor(level, concurrency)
}

// MoveCost returns the virtual time needed to migrate `pages` pages into
// level `to` from level `from`: bytes over the destination tier's promote
// (moving up) or demote (moving down) bandwidth. An unset bandwidth makes
// the move free — the oracle-policy convention.
func (h Hierarchy) MoveCost(from, to int, pages int64) simtime.Duration {
	if pages <= 0 || from == to {
		return 0
	}
	bw := h.Tiers[to].DemoteBytesPerSec
	if to < from {
		bw = h.Tiers[to].PromoteBytesPerSec
	}
	if bw <= 0 {
		return 0
	}
	bytes := pages * guest.PageSize
	return simtime.Duration(float64(bytes) / float64(bw) * float64(simtime.Second))
}

// ProvisionedCost prices the hierarchy's bounded capacities plus the given
// occupancy of the unbounded bottom tier — the memory-cost axis of the
// ext11 frontier.
func (h Hierarchy) ProvisionedCost(bottomPages int64) float64 {
	var cost float64
	for l := range h.Tiers {
		if h.Unbounded(l) {
			cost += float64(bottomPages) * h.Tiers[l].CostPerPage
			continue
		}
		cost += float64(h.Capacity(l)) * h.Tiers[l].CostPerPage
	}
	return cost
}

// DefaultHierarchy returns the four-tier production-shaped hierarchy of
// TIERS.md: DRAM over CXL-attached DRAM over NVMe SSD over an object store.
// The first three tiers reuse the calibrated technology specs of the
// presets (DefaultConfig's DRAM, the dram+cxl and dram+nvme slow tiers);
// the object tier models a network hop per miss with streaming restore
// bandwidth. Capacities are zero — callers size the tiers for their sweep
// (the bottom tier's zero means unbounded).
func DefaultHierarchy() Hierarchy {
	object := TierSpec{
		ReadSeq:        300 * simtime.Nanosecond,
		ReadRand:       20000 * simtime.Nanosecond,
		WriteSeq:       500 * simtime.Nanosecond,
		WriteRand:      25000 * simtime.Nanosecond,
		ContentionBeta: 0.3,
	}
	return Hierarchy{
		CacheHit: 1 * simtime.Nanosecond,
		Tiers: []TierDef{
			{Name: "dram", Spec: dram, CostPerPage: 1,
				PromoteBytesPerSec: 12 << 30, DemoteBytesPerSec: 12 << 30},
			{Name: "cxl", Spec: cxl, CostPerPage: 0.4,
				PromoteBytesPerSec: 8 << 30, DemoteBytesPerSec: 8 << 30},
			{Name: "ssd", Spec: nvme, CostPerPage: 0.1,
				PromoteBytesPerSec: 2 << 30, DemoteBytesPerSec: 1 << 30},
			{Name: "object", Spec: object, CostPerPage: 0.01,
				PromoteBytesPerSec: 256 << 20, DemoteBytesPerSec: 256 << 20},
		},
	}
}

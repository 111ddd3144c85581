// Package mem models tiered main memory as a hierarchy of tiers, fastest
// first.
//
// The paper's split — a small fast tier (DRAM) over a large cheap slow tier
// (Intel Optane PMem; the model works for CXL-attached DRAM or any
// technology with comparable semantics, as the paper argues in §III) — is a
// Hierarchy two levels deep: DefaultConfig, and the technology pairs of
// Presets, whose levels Fast and Slow are named "fast" and "slow".
// DefaultHierarchy stacks four (DRAM / CXL / SSD / object store — see
// TIERS.md). Each tier is a TierDef row with per-line costs, a capacity, a
// relative $ cost, and promote/demote bandwidths. MultiPlacement maps guest
// pages to levels, and MultiMeter books where an execution's time went, per
// level, splitting out the wait concurrent sharers add.
//
// The model charges virtual time per cache-line touch, with costs that depend
// on tier, stride pattern (sequential bursts are bandwidth-bound, random
// bursts latency-bound), access kind (PMem stores are much more expensive
// than loads), and the number of concurrent invocations sharing the tier
// (bandwidth contention — the mechanism behind Fig. 9).
package mem

import (
	"toss/internal/access"
	"toss/internal/simtime"
)

// The paper's two tiers, as the levels of a two-level hierarchy.
const (
	// Fast is the expensive low-latency tier (DRAM), level 0.
	Fast = 0
	// Slow is the cheap high-latency tier (PMem / CXL memory), level 1.
	Slow = 1
)

// MaxLevels bounds a hierarchy's depth, so a MultiMeter keeps its per-level
// accounts in fixed arrays: its zero value is ready to use, and charging
// allocates nothing. Hierarchy.Validate and NewMultiPlacement enforce it.
const MaxLevels = 4

// TierSpec gives one tier's per-line access costs and its sensitivity to
// concurrent sharers.
type TierSpec struct {
	// ReadSeq is the per-line cost of a sequential (prefetched,
	// bandwidth-bound) load burst.
	ReadSeq simtime.Duration
	// ReadRand is the per-line cost of a random (latency-bound) load.
	ReadRand simtime.Duration
	// WriteSeq is the per-line cost of a sequential store burst.
	WriteSeq simtime.Duration
	// WriteRand is the per-line cost of a random store.
	WriteRand simtime.Duration
	// ContentionBeta is the fractional latency increase added per
	// additional concurrent invocation sharing the tier: the effective
	// per-line cost at concurrency K is base*(1 + Beta*(K-1)).
	ContentionBeta float64
}

// lineCost returns the uncontended per-line cost for a pattern/kind pair.
func (s TierSpec) lineCost(p access.Pattern, k access.Kind) simtime.Duration {
	switch {
	case k == access.Read && p == access.Sequential:
		return s.ReadSeq
	case k == access.Read && p == access.Random:
		return s.ReadRand
	case k == access.Write && p == access.Sequential:
		return s.WriteSeq
	default:
		return s.WriteRand
	}
}

// DefaultConfig returns the paper's platform as a two-level hierarchy: DDR4
// DRAM as the fast tier and Intel Optane DC PMem (Apache Pass) as the slow
// tier. Values are per 64-byte line:
//
//   - DRAM: ~80 ns random load; streaming loads are prefetched down to a
//     bandwidth-bound ~5 ns/line (~13 GB/s per core).
//   - Optane: ~300 ns random load (~3.7x DRAM), ~15 ns/line streaming
//     (~4.3 GB/s), and substantially costlier stores (write bandwidth is
//     roughly a third of read bandwidth, random stores worse).
//
// ContentionBeta values make the slow tier and especially its write path
// degrade under concurrency, matching the paper's scalability observations,
// while DRAM stays nearly flat. Capacities and $ costs are left unset: the
// paper's cost axis is costmodel's fast:slow price ratio.
func DefaultConfig() Hierarchy { return twoLevel(dram, optane) }

// twoLevel returns the hierarchy of one fast:slow technology pair.
func twoLevel(fast, slow TierSpec) Hierarchy {
	return Hierarchy{
		CacheHit: 1 * simtime.Nanosecond,
		Tiers:    []TierDef{{Name: "fast", Spec: fast}, {Name: "slow", Spec: slow}},
	}
}

// MultiMeter accumulates where an execution's time went, per hierarchy
// level, mirroring the perf LLC-stall measurement the paper uses to rank
// memory intensity (§VI-C1). The zero value is ready to use.
type MultiMeter struct {
	// CPUTime is time attributed to computation (and cache hits).
	CPUTime simtime.Duration
	// MemTime is time attributed to memory service, per level.
	MemTime [MaxLevels]simtime.Duration
	// Contended is the part of MemTime caused by bandwidth contention with
	// concurrent invocations: the exact difference between the charged
	// service time and what the same touches would have cost at
	// concurrency 1 (identical rounding, so the split is lossless). Always
	// zero at concurrency 1. Stalls (ChargeStall) are excluded.
	Contended [MaxLevels]simtime.Duration
	// LineTouches counts line touches routed to each level.
	LineTouches [MaxLevels]int64
}

// NewMultiMeter returns a zeroed meter for a hierarchy `levels` deep, which
// Hierarchy.Validate bounds by MaxLevels. The zero MultiMeter is equally
// ready to use.
func NewMultiMeter(levels int) *MultiMeter { return &MultiMeter{} }

// ChargePages records the cost of an event hitting `pages` pages that all
// reside at the same level and returns it. The mix is
//
//	touches * ((1-HitRatio)*LineCost(level) + HitRatio*CacheHit + CPUPerLine)
//
// with the memory-service and CPU parts rounded separately; above
// concurrency 1 the level's Contended share is booked too.
func (m *MultiMeter) ChargePages(h Hierarchy, e access.Event, level, concurrency int, pages int64) simtime.Duration {
	if pages <= 0 {
		return 0
	}
	touches := float64(e.TouchesPerPage()) * float64(pages)
	hit := float64(h.CacheHit)
	memsvc := simtime.Duration(touches*(1-e.HitRatio)*h.LineCost(level, e.Pattern, e.Kind, concurrency) + 0.5)
	cpu := simtime.Duration(touches*(e.CPUPerLine+e.HitRatio*hit) + 0.5)
	m.CPUTime += cpu
	m.MemTime[level] += memsvc
	if concurrency > 1 {
		base := simtime.Duration(touches*(1-e.HitRatio)*h.LineCost(level, e.Pattern, e.Kind, 1) + 0.5)
		m.Contended[level] += memsvc - base
	}
	m.LineTouches[level] += e.TouchesPerPage() * pages
	return cpu + memsvc
}

// ChargeStall attributes a pure wait (an injected device stall) to a level's
// memory service time. The stall is wait, not work, so no line touches are
// counted — hit ratios stay a function of the placement alone.
func (m *MultiMeter) ChargeStall(level int, d simtime.Duration) {
	if d > 0 {
		m.MemTime[level] += d
	}
}

// Total returns all time accumulated by the meter.
func (m *MultiMeter) Total() simtime.Duration {
	t := m.CPUTime
	for _, d := range m.MemTime {
		t += d
	}
	return t
}

// StallFraction returns the fraction of total time spent waiting on memory —
// the paper's proxy for memory intensiveness.
func (m *MultiMeter) StallFraction() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	return float64(total-m.CPUTime) / float64(total)
}

// Package binpack provides the bin-packing heuristics TOSS uses to split a
// function's accessed memory regions into N bins of near-equal total access
// count (§V-C). The primary algorithm mirrors the open-source heuristic the
// paper cites (the PyPI "binpacking" package): sort items by weight
// descending and repeatedly place the heaviest remaining item into the bin
// with the smallest running sum — the classic greedy number-partitioning
// (longest-processing-time) scheme.
package binpack

import (
	"fmt"
	"sort"
)

// ToConstantBins partitions items (given by weight) into exactly n bins of
// near-equal weight sums. It returns, for each bin, the indices of the items
// assigned to it; bins are ordered by descending total weight and every item
// index appears exactly once. Items with zero or negative weight are
// distributed too (they cost nothing, so placement is arbitrary but
// deterministic).
func ToConstantBins(weights []int64, n int) ([][]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("binpack: bin count %d < 1", n)
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	// Heaviest first; ties broken by index for determinism.
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})

	bins := make([][]int, n)
	sums := make([]int64, n)
	for _, idx := range order {
		// Place into the lightest bin.
		best := 0
		for b := 1; b < n; b++ {
			if sums[b] < sums[best] {
				best = b
			}
		}
		bins[best] = append(bins[best], idx)
		sums[best] += weights[idx]
	}
	// Order bins heaviest-first for a stable, meaningful output order.
	binOrder := make([]int, n)
	for i := range binOrder {
		binOrder[i] = i
	}
	sort.SliceStable(binOrder, func(a, b int) bool {
		return sums[binOrder[a]] > sums[binOrder[b]]
	})
	out := make([][]int, n)
	for i, b := range binOrder {
		out[i] = bins[b]
	}
	return out, nil
}

// Package wstrack implements the working-set trackers used by the
// snapshot-based baselines the paper analyzes (§II-C):
//
//   - REAP captures, via userfaultfd(), the set of guest pages touched at
//     least once during the first invocation. The record is binary — the
//     "dual-accessed" classification the paper criticizes in Observation #4.
//   - FaaSnap uses mincore(), which also reports pages that the host page
//     cache prefetched but the function never touched, inflating the
//     working set (§III-C).
//
// Both trackers consume the same simulated access stream the rest of the
// system executes, so their view is consistent with DAMON's.
package wstrack

import (
	"toss/internal/access"
	"toss/internal/guest"
)

// WorkingSet returns the userfaultfd-style working set of a trace: the
// normalized regions of pages touched at least once.
func WorkingSet(tr *access.Trace) []guest.Region {
	return tr.Pages()
}

// WorkingSetPages returns the page count of the userfaultfd working set.
func WorkingSetPages(tr *access.Trace) int64 {
	return tr.FootprintPages()
}

// WorkingSetMincore returns the mincore-style working set: the touched
// pages inflated by host readahead. mincore() reports what sits in the host
// page cache, and the kernel's readahead both rounds faults to small
// clusters and overshoots past the end of every sequential run — so each
// touched run grows to cluster alignment at its start and by a full
// readahead window at its end (§III-C's working-set inflation).
func WorkingSetMincore(tr *access.Trace, readaheadPages int64, totalPages int64) []guest.Region {
	if readaheadPages < 1 {
		readaheadPages = 1
	}
	const clusterPages = 4 // fault-around alignment
	touched := tr.Pages()
	inflated := make([]guest.Region, 0, len(touched))
	for _, r := range touched {
		start := (int64(r.Start) / clusterPages) * clusterPages
		end := int64(r.End()) + readaheadPages
		if end > totalPages {
			end = totalPages
		}
		if end <= start {
			continue
		}
		inflated = append(inflated, guest.Region{
			Start: guest.PageID(start),
			Pages: end - start,
		})
	}
	return guest.NormalizeRegions(inflated)
}

// Missing returns the pages of `want` not covered by the working set `have`,
// as normalized regions. REAP demand-faults exactly these pages when the
// execution input diverges from the snapshot input (Fig. 3).
func Missing(want, have []guest.Region) []guest.Region {
	have = guest.NormalizeRegions(have)
	var out []guest.Region
	for _, w := range guest.NormalizeRegions(want) {
		out = append(out, subtract(w, have)...)
	}
	return guest.NormalizeRegions(out)
}

// subtract removes every covered run of w that intersects regions in have
// (which must be normalized) and returns the remainder.
func subtract(w guest.Region, have []guest.Region) []guest.Region {
	var out []guest.Region
	cur := w
	for _, h := range have {
		if h.End() <= cur.Start {
			continue
		}
		if h.Start >= cur.End() {
			break
		}
		if h.Start > cur.Start {
			out = append(out, guest.Region{Start: cur.Start, Pages: int64(h.Start - cur.Start)})
		}
		if h.End() >= cur.End() {
			return out
		}
		cur = guest.Region{Start: h.End(), Pages: int64(cur.End() - h.End())}
	}
	if !cur.Empty() {
		out = append(out, cur)
	}
	return out
}

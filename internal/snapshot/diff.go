package snapshot

import "toss/internal/guest"

// TieredDiff summarizes what changes between two generations of a tiered
// snapshot — the basis for incremental regeneration after re-profiling
// (§V-E): pages whose tier is unchanged can stay in place in their tier
// file; only moved and added pages need rewriting.
type TieredDiff struct {
	// ReusedPages kept their tier across generations.
	ReusedPages int64
	// MovedPages changed tier (must be copied between the tier files).
	MovedPages int64
	// AddedPages exist only in the new snapshot (newly profiled memory).
	AddedPages int64
	// RemovedPages exist only in the old snapshot.
	RemovedPages int64
}

// RewrittenPages returns how many pages an incremental regeneration writes.
func (d TieredDiff) RewrittenPages() int64 { return d.MovedPages + d.AddedPages }

// DiffTiered computes the per-page difference between two generations. A
// page's tier is the image that holds it; BuildTiered puts each resident
// page in exactly one, so the counts come from intersecting the images'
// regions.
func DiffTiered(old, new *Tiered) TieredDiff {
	var d TieredDiff
	for i, n := range [2]*Memory{new.FastMem, new.SlowMem} {
		for j, o := range [2]*Memory{old.FastMem, old.SlowMem} {
			shared := sharedPages(n.Regions, o.Regions)
			if i == j {
				d.ReusedPages += shared
			} else {
				d.MovedPages += shared
			}
		}
	}
	kept := d.ReusedPages + d.MovedPages
	d.AddedPages = int64(len(new.FastMem.Pages)+len(new.SlowMem.Pages)) - kept
	d.RemovedPages = int64(len(old.FastMem.Pages)+len(old.SlowMem.Pages)) - kept
	return d
}

// sharedPages counts the pages two normalized region lists have in common.
func sharedPages(a, b []guest.Region) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if lo, hi := max(a[i].Start, b[j].Start), min(a[i].End(), b[j].End()); lo < hi {
			n += int64(hi - lo)
		}
		if a[i].End() < b[j].End() {
			i++
		} else {
			j++
		}
	}
	return n
}

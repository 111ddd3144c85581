package snapshot

import (
	"toss/internal/guest"
	"toss/internal/mem"
)

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

// ReuseFraction returns the share of the new snapshot's pages that needed
// no rewrite (1.0 when nothing changed; 0 for an empty snapshot).
func (d TieredDiff) ReuseFraction() float64 {
	total := d.ReusedPages + d.MovedPages + d.AddedPages
	if total == 0 {
		return 0
	}
	return float64(d.ReusedPages) / float64(total)
}

// tierOfPage reports which tier image of t holds page p, if any.
func tierOfPage(t *Tiered, p guest.PageID) (int, bool) {
	if _, ok := t.FastMem.Pages[p]; ok {
		return mem.Fast, true
	}
	if _, ok := t.SlowMem.Pages[p]; ok {
		return mem.Slow, true
	}
	return 0, false
}

// DiffTiered computes the per-page difference between two generations.
func DiffTiered(old, new *Tiered) TieredDiff {
	var d TieredDiff
	seen := make(map[guest.PageID]bool, len(new.FastMem.Pages)+len(new.SlowMem.Pages))
	scan := func(pages map[guest.PageID]PageDigest, tier int) {
		for p := range pages {
			seen[p] = true
			oldTier, existed := tierOfPage(old, p)
			switch {
			case !existed:
				d.AddedPages++
			case oldTier == tier:
				d.ReusedPages++
			default:
				d.MovedPages++
			}
		}
	}
	scan(new.FastMem.Pages, mem.Fast)
	scan(new.SlowMem.Pages, mem.Slow)
	for p := range old.FastMem.Pages {
		if !seen[p] {
			d.RemovedPages++
		}
	}
	for p := range old.SlowMem.Pages {
		if !seen[p] {
			d.RemovedPages++
		}
	}
	return d
}

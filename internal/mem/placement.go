package mem

import (
	"fmt"

	"toss/internal/guest"
)

// LevelSegment is a run of pages with a uniform hierarchy level.
type LevelSegment struct {
	Region guest.Region
	Level  int
}

// leveledRun is one sorted, coalesced run of a MultiPlacement.
type leveledRun struct {
	region guest.Region
	level  int
}

// MultiPlacement maps guest pages to hierarchy levels. Pages not covered by
// any run sit at the default level: the fast tier for a booted guest, the
// bottom tier for a migration engine's non-resident snapshot pages. Build
// one with NewMultiPlacement.
type MultiPlacement struct {
	levels     int
	defLevel   int
	totalPages int64
	runs       []leveledRun // sorted, disjoint, coalesced, level != defLevel
}

// NewMultiPlacement returns a placement over a guest of totalPages pages
// with every page at defaultLevel.
func NewMultiPlacement(levels, defaultLevel int, totalPages int64) (*MultiPlacement, error) {
	if levels < 2 || levels > MaxLevels {
		return nil, fmt.Errorf("mem: placement needs 2..%d levels, got %d", MaxLevels, levels)
	}
	if defaultLevel < 0 || defaultLevel >= levels {
		return nil, fmt.Errorf("mem: default level %d out of [0,%d)", defaultLevel, levels)
	}
	if totalPages <= 0 {
		return nil, fmt.Errorf("mem: non-positive guest size %d", totalPages)
	}
	return &MultiPlacement{levels: levels, defLevel: defaultLevel, totalPages: totalPages}, nil
}

// Set assigns every page of r to the given level, splitting and coalescing
// runs as needed. Out-of-range regions are clipped to the guest.
func (mp *MultiPlacement) Set(r guest.Region, level int) {
	mp.place([]guest.Region{r}, level)
}

// SetRegions assigns every page of rs to the given level in one pass: the
// regions may overlap and come in any order, and are clipped to the guest.
// It is the bulk form of Set — building a placement from a region list
// costs one sort of the list and one merge with the existing runs.
func (mp *MultiPlacement) SetRegions(rs []guest.Region, level int) {
	mp.place(guest.NormalizeRegions(rs), level)
}

// place merges sorted, disjoint regions at level into the runs.
func (mp *MultiPlacement) place(rs []guest.Region, level int) {
	if level < 0 || level >= mp.levels {
		panic(fmt.Sprintf("mem: level %d out of [0,%d)", level, mp.levels))
	}
	if len(rs) == 0 {
		return
	}
	old := mp.runs
	out := make([]leveledRun, 0, len(old)+len(rs)+1)
	i := 0
	for _, r := range rs {
		start, end := max(r.Start, 0), min(r.End(), guest.PageID(mp.totalPages))
		if start >= end {
			continue
		}
		for ; i < len(old) && old[i].region.End() <= start; i++ {
			out = appendRun(out, old[i])
		}
		// A run straddling start keeps its head.
		if i < len(old) && old[i].region.Start < start {
			out = appendRun(out, leveledRun{
				region: guest.Region{Start: old[i].region.Start, Pages: int64(start - old[i].region.Start)},
				level:  old[i].level,
			})
		}
		if level != mp.defLevel {
			out = appendRun(out, leveledRun{region: guest.Region{Start: start, Pages: int64(end - start)}, level: level})
		}
		for ; i < len(old) && old[i].region.End() <= end; i++ {
		}
		// A run straddling end keeps its tail, which the next region may
		// split again; old is discarded below, so trim it in place.
		if i < len(old) && old[i].region.Start < end {
			old[i].region = guest.Region{Start: end, Pages: int64(old[i].region.End() - end)}
		}
	}
	for ; i < len(old); i++ {
		out = appendRun(out, old[i])
	}
	mp.runs = out
}

// appendRun appends a run, coalescing it with the previous run when adjacent
// and same-level.
func appendRun(runs []leveledRun, r leveledRun) []leveledRun {
	if n := len(runs); n > 0 && runs[n-1].level == r.level && runs[n-1].region.End() == r.region.Start {
		runs[n-1].region.Pages += r.region.Pages
		return runs
	}
	return append(runs, r)
}

// search returns the index of the first run ending after p.
func (mp *MultiPlacement) search(p guest.PageID) int {
	lo, hi := 0, len(mp.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if mp.runs[mid].region.End() <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LevelOf returns the level holding page p.
func (mp *MultiPlacement) LevelOf(p guest.PageID) int {
	if i := mp.search(p); i < len(mp.runs) && mp.runs[i].region.Start <= p {
		return mp.runs[i].level
	}
	return mp.defLevel
}

// AppendSegments appends the maximal uniform-level sub-runs of r to dst in
// address order and returns the extended slice. It binary-searches once and
// walks forward; replay loops pass a reused scratch slice (dst[:0]) so the
// per-event split allocates nothing in steady state.
func (mp *MultiPlacement) AppendSegments(dst []LevelSegment, r guest.Region) []LevelSegment {
	i := mp.search(r.Start)
	for cur, end := r.Start, r.End(); cur < end; {
		lv, next := mp.defLevel, end
		if i < len(mp.runs) {
			if run := mp.runs[i].region; run.Start <= cur {
				lv, next = mp.runs[i].level, min(run.End(), end)
				i++
			} else {
				next = min(run.Start, end)
			}
		}
		dst = append(dst, LevelSegment{Region: guest.Region{Start: cur, Pages: int64(next - cur)}, Level: lv})
		cur = next
	}
	return dst
}

// Segments splits r into maximal uniform-level sub-runs in address order.
func (mp *MultiPlacement) Segments(r guest.Region) []LevelSegment {
	return mp.AppendSegments(nil, r)
}

// Regions returns the maximal runs of the guest at a level, in address
// order.
func (mp *MultiPlacement) Regions(level int) []guest.Region {
	var out []guest.Region
	for _, s := range mp.Segments(guest.Region{Start: 0, Pages: mp.totalPages}) {
		if s.Level == level {
			out = append(out, s.Region)
		}
	}
	return out
}

package access

import (
	"slices"

	"toss/internal/guest"
)

// The writers and readers below are built on the histogram's one live
// write path, Update, and its runs. The simulator needs none of them; the
// tests use them to drive Update through every kind of write and to check
// its results against the dense per-page reference.

// LineTouches returns the total number of line touches the event performs
// across all pages and repeats.
func (e Event) LineTouches() int64 {
	return e.Region.Pages * int64(e.LinesPerPage) * int64(e.Repeat)
}

// AddEvent credits every page in the event with its touch count.
func (h *Histogram) AddEvent(e Event) {
	h.AddRegion(e.Region, e.TouchesPerPage())
}

// AddTrace accumulates a whole trace.
func (h *Histogram) AddTrace(t *Trace) {
	for _, e := range t.Events {
		h.AddEvent(e)
	}
}

// Add credits a single page with n touches. Adding zero is a no-op.
func (h *Histogram) Add(p guest.PageID, n int64) {
	h.AddRegion(guest.Region{Start: p, Pages: 1}, n)
}

// AddRegion credits every page of r with n touches. Adding zero or to an
// empty region is a no-op.
func (h *Histogram) AddRegion(r guest.Region, n int64) {
	if n == 0 || r.Empty() {
		return
	}
	one := [1]Run{{Region: r, Count: n}}
	h.Update(one[:], sum)
}

// Merge adds all counts from o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == h {
		o = o.Clone()
	}
	h.Update(o.runs, sum)
}

// MergeMax folds o into h keeping, for each page o touches, the larger of
// the two counts. TOSS's unified access-pattern file uses max-merge so the
// pattern reflects the most intense behaviour seen for each page across
// invocations.
func (h *Histogram) MergeMax(o *Histogram) {
	if o == h {
		return
	}
	h.Update(o.runs, larger)
}

func sum(old, v int64) int64 { return old + v }

func larger(old, v int64) int64 { return max(old, v) }

// Total returns the sum of all counts.
func (h *Histogram) Total() int64 {
	var total int64
	for _, r := range h.runs {
		total += r.Count * r.Region.Pages
	}
	return total
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{runs: slices.Clone(h.runs)}
}

// TouchedRegions returns the touched pages as a normalized region list.
func (h *Histogram) TouchedRegions() []guest.Region {
	var regions []guest.Region
	for _, r := range h.runs {
		if n := len(regions); n > 0 && regions[n-1].End() == r.Region.Start {
			regions[n-1].Pages += r.Region.Pages
			continue
		}
		regions = append(regions, r.Region)
	}
	return regions
}

// Equal reports whether two histograms hold identical counts.
func (h *Histogram) Equal(o *Histogram) bool { return slices.Equal(h.runs, o.runs) }

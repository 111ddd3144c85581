// Package access defines the memory-access representation the simulator
// executes: workloads compile to a Trace of page-granular Events, the microVM
// charges virtual time for each event based on tier placement, and profilers
// (DAMON, userfaultfd) observe the same stream.
//
// An Event is deliberately coarser than a single load/store: it describes a
// structured burst — "touch pages [p, p+n) at l lines per page, repeated r
// times, with this stride pattern, this cache hit ratio and this much
// computation per line". This keeps simulating a 1 GiB-footprint function
// cheap while preserving everything TOSS consumes: which pages are touched,
// how often, and how sensitive those touches are to memory latency.
package access

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"toss/internal/guest"
)

// Kind distinguishes loads from stores; the slow tier in the paper (Optane
// PMem) is markedly more expensive for stores.
type Kind uint8

const (
	// Read is a load burst.
	Read Kind = iota
	// Write is a store burst.
	Write
)

// String names the access kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Pattern describes the spatial stride of a burst. Sequential bursts are
// bandwidth-bound (hardware prefetch hides latency); Random bursts pay full
// memory latency per miss.
type Pattern uint8

const (
	// Sequential is a streaming, prefetch-friendly burst.
	Sequential Pattern = iota
	// Random is a pointer-chasing / scattered burst.
	Random
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "seq"
	case Random:
		return "rand"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Event is one structured memory-access burst plus its attached computation.
type Event struct {
	// Region is the page range the burst touches.
	Region guest.Region
	// LinesPerPage is how many distinct cache lines are touched per page
	// (1..guest.LinesPerPage). A page-table walk touches 1; a full scan 64.
	LinesPerPage int
	// Repeat is how many times the whole burst re-runs (loop trip count).
	Repeat int
	// Kind is load vs store.
	Kind Kind
	// Pattern is the stride class.
	Pattern Pattern
	// HitRatio is the fraction of line touches served by the CPU caches and
	// therefore insensitive to tier placement (0..1). High-reuse kernels
	// (matmul inner tiles) set this close to 1.
	HitRatio float64
	// CPUPerLine is pure computation time attached to each line touch, in
	// virtual nanoseconds. It models the instruction stream between memory
	// operations and is charged regardless of placement.
	CPUPerLine float64
}

// Validate reports whether the event is internally consistent.
func (e Event) Validate() error {
	if e.Region.Empty() {
		return fmt.Errorf("access: event with empty region %v", e.Region)
	}
	if e.Region.Start < 0 {
		return fmt.Errorf("access: event region %v starts before page 0", e.Region)
	}
	if e.LinesPerPage < 1 || e.LinesPerPage > guest.LinesPerPage {
		return fmt.Errorf("access: LinesPerPage %d out of [1,%d]", e.LinesPerPage, guest.LinesPerPage)
	}
	if e.Repeat < 1 {
		return fmt.Errorf("access: Repeat %d < 1", e.Repeat)
	}
	if e.HitRatio < 0 || e.HitRatio > 1 {
		return fmt.Errorf("access: HitRatio %v out of [0,1]", e.HitRatio)
	}
	if e.CPUPerLine < 0 {
		return fmt.Errorf("access: negative CPUPerLine %v", e.CPUPerLine)
	}
	return nil
}

// TouchesPerPage returns the number of line touches each page receives.
func (e Event) TouchesPerPage() int64 {
	return int64(e.LinesPerPage) * int64(e.Repeat)
}

// Trace is an ordered sequence of events — one function invocation's memory
// behaviour.
type Trace struct {
	Events []Event

	// Derived-view memos. Events only ever grows (Append is the sole
	// mutator), so each memo records the event count it was computed at
	// and is recomputed when the trace has grown since.
	memoMu   sync.Mutex
	pagesAt  int
	pages    []guest.Region
	countsAt int
	counts   *Histogram
}

// Append adds an event, panicking on malformed events so workload bugs
// surface immediately at generation time rather than mid-experiment.
func (t *Trace) Append(e Event) {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	t.Events = append(t.Events, e)
}

// Validate checks every event in the trace.
func (t *Trace) Validate() error {
	for i, e := range t.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Pages returns the set of distinct pages the trace touches, as a normalized
// region list. The result is memoized and shared — treat it as read-only.
func (t *Trace) Pages() []guest.Region {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if t.pages != nil && t.pagesAt == len(t.Events) {
		return t.pages
	}
	regions := make([]guest.Region, 0, len(t.Events))
	for _, e := range t.Events {
		regions = append(regions, e.Region)
	}
	t.pages = guest.NormalizeRegions(regions)
	t.pagesAt = len(t.Events)
	return t.pages
}

// FootprintPages returns the number of distinct pages touched.
func (t *Trace) FootprintPages() int64 {
	return guest.TotalPages(t.Pages())
}

// Counts returns the trace's per-page access histogram — the ground truth
// every profiler (DAMON, wstrack) and every truth-recording replay derives.
// The histogram is memoized and shared between callers — treat it as
// read-only; use Clone before mutating.
//
// Each event adds its touches per page over its region, so the counts
// change only at event boundaries: one sort of the 2×events boundary
// deltas and a sweep over them build the runs, whatever the guest size.
func (t *Trace) Counts() *Histogram {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if t.counts != nil && t.countsAt == len(t.Events) {
		return t.counts
	}
	type edge struct {
		at    guest.PageID
		delta int64
	}
	edges := make([]edge, 0, 2*len(t.Events))
	for _, e := range t.Events {
		if per := e.TouchesPerPage(); per != 0 && !e.Region.Empty() {
			edges = append(edges, edge{e.Region.Start, per}, edge{e.Region.End(), -per})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	h := NewHistogram()
	var count int64
	for i, e := range edges {
		count += e.delta
		if i+1 < len(edges) && edges[i+1].at > e.at {
			h.runs = appendRun(h.runs, Run{Region: guest.Region{Start: e.at, Pages: int64(edges[i+1].at - e.at)}, Count: count})
		}
	}
	t.counts = h
	t.countsAt = len(t.Events)
	return h
}

// Run is a maximal run of pages sharing one nonzero access count.
type Run struct {
	Region guest.Region
	Count  int64
}

// Histogram accumulates per-page access counts — the ground truth that the
// DAMON simulator samples from and that analysis code reasons about.
//
// The representation is run-length: sorted, disjoint runs of pages with a
// nonzero count, neighbours with equal counts coalesced, so two histograms
// with the same counts hold the same runs. Traces are region bursts, so a
// trace's histogram has a few runs per event however large the guest is.
// Pages with a zero count are indistinguishable from untouched pages.
type Histogram struct {
	runs []Run
	// spare is the rebuild buffer splice reuses between writes.
	spare []Run
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Runs returns the histogram's runs in address order. The slice is shared —
// treat it as read-only; it is invalidated by the next write.
func (h *Histogram) Runs() []Run { return h.runs }

// Update sets every page p that a run of src covers to f(h.Count(p),
// run.Count), taking the runs in order, so a run overlapping an earlier one
// sees its result; a result of 0 clears the page. src must not share
// memory with h's own runs. It is the histogram's one write path. Each
// sorted, disjoint stretch of src costs a binary search, one pass over the
// runs it overlaps and one splice, so appending at or past the last run
// copies amortized O(1) runs.
func (h *Histogram) Update(src []Run, f func(old, v int64) int64) {
	for len(src) > 0 {
		n, end := 0, guest.PageID(math.MinInt64)
		for ; n < len(src); n++ {
			if r := src[n].Region; !r.Empty() {
				if r.Start < end {
					break
				}
				end = r.End()
			}
		}
		h.splice(src[:n], end, f)
		src = src[n:]
	}
}

// splice applies Update to sorted, disjoint src whose last region ends at
// end. It rebuilds the window of runs that overlap or touch the span of src
// — touching, so the edges coalesce — and splices the window back.
func (h *Histogram) splice(src []Run, end guest.PageID, f func(old, v int64) int64) {
	start := end
	for _, s := range src {
		if !s.Region.Empty() {
			start = s.Region.Start
			break
		}
	}
	if start == end {
		return
	}
	runs := h.runs
	lo := sort.Search(len(runs), func(i int) bool { return runs[i].Region.End() >= start })
	hi := lo + sort.Search(len(runs)-lo, func(i int) bool { return runs[lo+i].Region.Start > end })
	out := h.spare[:0]
	i := lo
	for _, s := range src {
		if s.Region.Empty() {
			continue
		}
		p, e := s.Region.Start, s.Region.End()
		for ; i < hi && runs[i].Region.End() <= p; i++ {
			out = appendRun(out, runs[i])
		}
		// A run straddling p keeps its head; the window is rebuilt from
		// out, so its tail may be trimmed in place.
		if i < hi && runs[i].Region.Start < p {
			r := runs[i].Region
			out = appendRun(out, Run{Region: guest.Region{Start: r.Start, Pages: int64(p - r.Start)}, Count: runs[i].Count})
			runs[i].Region = guest.Region{Start: p, Pages: int64(r.End() - p)}
		}
		for p < e {
			if i < hi && runs[i].Region.Start == p {
				r := runs[i].Region
				next := min(r.End(), e)
				out = appendRun(out, Run{Region: guest.Region{Start: p, Pages: int64(next - p)}, Count: f(runs[i].Count, s.Count)})
				if next == r.End() {
					i++
				} else {
					runs[i].Region = guest.Region{Start: next, Pages: int64(r.End() - next)}
				}
				p = next
				continue
			}
			next := e
			if i < hi {
				next = min(next, runs[i].Region.Start)
			}
			out = appendRun(out, Run{Region: guest.Region{Start: p, Pages: int64(next - p)}, Count: f(0, s.Count)})
			p = next
		}
	}
	for ; i < hi; i++ {
		out = appendRun(out, runs[i])
	}
	if lo == 0 && hi == len(runs) {
		h.runs, h.spare = out, runs[:0]
		return
	}
	h.runs = slices.Replace(runs, lo, hi, out...)
	h.spare = out[:0]
}

// appendRun appends r to runs, dropping it when empty or zero and
// coalescing it into the last run when adjacent with an equal count.
func appendRun(runs []Run, r Run) []Run {
	if r.Count == 0 || r.Region.Empty() {
		return runs
	}
	if n := len(runs); n > 0 && runs[n-1].Count == r.Count && runs[n-1].Region.End() == r.Region.Start {
		runs[n-1].Region.Pages += r.Region.Pages
		return runs
	}
	return append(runs, r)
}

// Count returns the accumulated touches for a page (0 if untouched).
func (h *Histogram) Count(p guest.PageID) int64 {
	i := sort.Search(len(h.runs), func(i int) bool { return h.runs[i].Region.End() > p })
	if i < len(h.runs) && h.runs[i].Region.Start <= p {
		return h.runs[i].Count
	}
	return 0
}

// Len returns the number of distinct touched pages.
func (h *Histogram) Len() int {
	var n int64
	for _, r := range h.runs {
		n += r.Region.Pages
	}
	return int(n)
}

// PageCount pairs a page with its access count.
type PageCount struct {
	Page  guest.PageID
	Count int64
}

// Sorted returns all touched (page, count) pairs in ascending page order:
// the per-page view, for callers that join pages one by one.
func (h *Histogram) Sorted() []PageCount {
	out := make([]PageCount, 0, h.Len())
	for _, r := range h.runs {
		for p := r.Region.Start; p < r.Region.End(); p++ {
			out = append(out, PageCount{p, r.Count})
		}
	}
	return out
}

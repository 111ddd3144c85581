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
	"fmt"
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

// LineTouches returns the total number of line touches the event performs
// across all pages and repeats.
func (e Event) LineTouches() int64 {
	return e.Region.Pages * int64(e.LinesPerPage) * int64(e.Repeat)
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
func (t *Trace) Counts() *Histogram {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if t.counts != nil && t.countsAt == len(t.Events) {
		return t.counts
	}
	var end guest.PageID
	for _, e := range t.Events {
		if e.Region.End() > end {
			end = e.Region.End()
		}
	}
	h := NewHistogramSized(int64(end))
	for _, e := range t.Events {
		h.AddEvent(e)
	}
	t.counts = h
	t.countsAt = len(t.Events)
	return h
}

// Histogram accumulates per-page access counts — the ground truth that the
// DAMON simulator samples from and that analysis code reasons about.
//
// The representation is a dense slice indexed by page id: guest address
// spaces here are at most a few hundred thousand pages, profiling touches a
// large fraction of them every invocation, and the dense form makes the
// per-invocation fold linear with no hashing or sorting. Pages with a zero
// count are indistinguishable from untouched pages.
type Histogram struct {
	counts  []int64 // index: PageID
	nonzero int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// NewHistogramSized returns an empty histogram whose backing store already
// covers pages [0, pages), avoiding the grow-doubling copies when the
// caller knows the address-space bound up front.
func NewHistogramSized(pages int64) *Histogram {
	if pages <= 0 {
		return &Histogram{}
	}
	return &Histogram{counts: make([]int64, pages)}
}

// grow ensures the backing slice covers page p.
func (h *Histogram) grow(p guest.PageID) {
	if int64(p) < int64(len(h.counts)) {
		return
	}
	n := int64(p) + 1
	if n < int64(2*len(h.counts)) {
		n = int64(2 * len(h.counts))
	}
	bigger := make([]int64, n)
	copy(bigger, h.counts)
	h.counts = bigger
}

// AddEvent credits every page in the event with its touch count.
func (h *Histogram) AddEvent(e Event) {
	per := e.TouchesPerPage()
	if per == 0 || e.Region.Empty() {
		return
	}
	h.grow(e.Region.End() - 1)
	for p := e.Region.Start; p < e.Region.End(); p++ {
		if h.counts[p] == 0 {
			h.nonzero++
		}
		h.counts[p] += per
	}
}

// AddTrace accumulates a whole trace.
func (h *Histogram) AddTrace(t *Trace) {
	for _, e := range t.Events {
		h.AddEvent(e)
	}
}

// Add credits a single page with n touches. Adding zero is a no-op.
func (h *Histogram) Add(p guest.PageID, n int64) {
	if n == 0 {
		return
	}
	h.grow(p)
	if h.counts[p] == 0 {
		h.nonzero++
	}
	h.counts[p] += n
	if h.counts[p] == 0 {
		h.nonzero--
	}
}

// Count returns the accumulated touches for a page (0 if untouched).
func (h *Histogram) Count(p guest.PageID) int64 {
	if int64(p) >= int64(len(h.counts)) || p < 0 {
		return 0
	}
	return h.counts[p]
}

// Len returns the number of distinct touched pages.
func (h *Histogram) Len() int { return h.nonzero }

// Total returns the sum of all counts.
func (h *Histogram) Total() int64 {
	var sum int64
	for _, c := range h.counts {
		sum += c
	}
	return sum
}

// Merge adds all counts from o into h.
func (h *Histogram) Merge(o *Histogram) {
	for p, c := range o.counts {
		if c != 0 {
			h.Add(guest.PageID(p), c)
		}
	}
}

// MergeMax folds o into h keeping, for each page, the larger of the two
// counts. TOSS's unified access-pattern file uses max-merge so the pattern
// reflects the most intense behaviour seen for each page across invocations.
func (h *Histogram) MergeMax(o *Histogram) {
	for p, c := range o.counts {
		if c > h.Count(guest.PageID(p)) {
			h.Add(guest.PageID(p), c-h.Count(guest.PageID(p)))
		}
	}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{counts: append([]int64(nil), h.counts...), nonzero: h.nonzero}
}

// PageCount pairs a page with its access count.
type PageCount struct {
	Page  guest.PageID
	Count int64
}

// Sorted returns all touched (page, count) pairs in ascending page order.
func (h *Histogram) Sorted() []PageCount {
	out := make([]PageCount, 0, h.nonzero)
	for p, c := range h.counts {
		if c != 0 {
			out = append(out, PageCount{guest.PageID(p), c})
		}
	}
	return out
}

// TouchedRegions returns the touched pages as a normalized region list.
func (h *Histogram) TouchedRegions() []guest.Region {
	var regions []guest.Region
	var cur *guest.Region
	for p, c := range h.counts {
		if c == 0 {
			cur = nil
			continue
		}
		if cur != nil && cur.End() == guest.PageID(p) {
			cur.Pages++
			continue
		}
		regions = append(regions, guest.Region{Start: guest.PageID(p), Pages: 1})
		cur = &regions[len(regions)-1]
	}
	return regions
}

// Equal reports whether two histograms hold identical counts.
func (h *Histogram) Equal(o *Histogram) bool {
	if h.nonzero != o.nonzero {
		return false
	}
	long, short := h.counts, o.counts
	if len(long) < len(short) {
		long, short = short, long
	}
	for p := range short {
		if short[p] != long[p] {
			return false
		}
	}
	for _, c := range long[len(short):] {
		if c != 0 {
			return false
		}
	}
	return true
}

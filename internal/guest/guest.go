// Package guest models the physical address space of a microVM guest.
//
// The simulator works at page granularity: a guest is a contiguous range of
// 4 KiB pages, the low pages hold the boot image (kernel plus language
// runtime, which Firecracker snapshots capture wholesale), and the remainder
// is a heap from which workloads allocate their buffers.
//
// The heap allocator deliberately injects seeded placement jitter: the paper
// observes (Observation #3) that invocations with identical inputs still
// produce slightly different memory access patterns because guest-OS memory
// allocation is non-deterministic. Reproducing that instability is essential
// for the REAP input-mismatch experiments (Fig. 3) and for TOSS's
// multi-invocation profiling to have something to converge over.
package guest

import (
	"fmt"
	"math/rand"
	"sort"

	"toss/internal/lazyrand"
)

const (
	// PageSize is the guest page size in bytes.
	PageSize = 4096
	// LineSize is the cache-line size in bytes used by the memory model.
	LineSize = 64
	// LinesPerPage is the number of cache lines in one page.
	LinesPerPage = PageSize / LineSize
)

// PageID identifies one guest physical page by index.
type PageID int64

// Addr returns the guest physical byte address of the page's first byte.
func (p PageID) Addr() int64 { return int64(p) * PageSize }

// Region is a contiguous run of guest pages [Start, Start+Pages).
type Region struct {
	Start PageID
	Pages int64
}

// End returns the first page after the region.
func (r Region) End() PageID { return r.Start + PageID(r.Pages) }

// Bytes returns the region size in bytes.
func (r Region) Bytes() int64 { return r.Pages * PageSize }

// Contains reports whether page p falls inside the region.
func (r Region) Contains(p PageID) bool { return p >= r.Start && p < r.End() }

// Overlaps reports whether two regions share at least one page.
func (r Region) Overlaps(o Region) bool { return r.Start < o.End() && o.Start < r.End() }

// Adjacent reports whether o begins exactly where r ends.
func (r Region) Adjacent(o Region) bool { return r.End() == o.Start }

// Empty reports whether the region covers no pages.
func (r Region) Empty() bool { return r.Pages <= 0 }

// String formats the region as [start,end) in pages.
func (r Region) String() string {
	return fmt.Sprintf("[%d,%d)", r.Start, r.End())
}

// Split cuts the region into two at offset pages from the start. The offset
// must be within (0, r.Pages).
func (r Region) Split(offset int64) (Region, Region) {
	if offset <= 0 || offset >= r.Pages {
		panic(fmt.Sprintf("guest: invalid split offset %d for %v", offset, r))
	}
	return Region{r.Start, offset}, Region{r.Start + PageID(offset), r.Pages - offset}
}

// MiB converts a mebibyte count to bytes.
func MiB(n int64) int64 { return n << 20 }

// PagesForBytes returns the number of pages needed to hold n bytes.
func PagesForBytes(n int64) int64 {
	return (n + PageSize - 1) / PageSize
}

// Layout describes the fixed portions of a guest's physical memory.
//
// The boot image portion models everything a snapshot captures besides the
// function's own data: kernel text/data, the language runtime (the paper's
// functions are Python), and loaded libraries. Most of it is cold during an
// invocation, which is exactly the memory TOSS ships to the slow tier.
type Layout struct {
	// TotalPages is the configured guest memory size in pages.
	TotalPages int64
	// BootImage is the region holding kernel + runtime + libraries.
	BootImage Region
	// Heap is the region workloads allocate from.
	Heap Region
}

// NewLayout builds a guest layout for a memory size in bytes. The boot image
// takes bootBytes at the bottom of memory; the rest is heap.
func NewLayout(memBytes, bootBytes int64) (Layout, error) {
	if memBytes <= 0 {
		return Layout{}, fmt.Errorf("guest: non-positive memory size %d", memBytes)
	}
	if bootBytes < 0 || bootBytes >= memBytes {
		return Layout{}, fmt.Errorf("guest: boot image %d B does not fit in %d B", bootBytes, memBytes)
	}
	total := PagesForBytes(memBytes)
	boot := PagesForBytes(bootBytes)
	return Layout{
		TotalPages: total,
		BootImage:  Region{Start: 0, Pages: boot},
		Heap:       Region{Start: PageID(boot), Pages: total - boot},
	}, nil
}

// Allocator is a bump allocator over the guest heap with seeded jitter.
//
// Each allocation may be preceded by a small random gap and the gap sizes
// depend on the seed, so two invocations of the same workload with different
// seeds place their buffers on (slightly) different pages — the guest-OS
// allocation non-determinism the paper reports.
type Allocator struct {
	heap Region
	next PageID
	rng  *rand.Rand
	// maxGapPages bounds the random gap inserted before each allocation.
	maxGapPages int64
}

// NewAllocator returns an allocator over the layout's heap. A zero seed
// disables jitter entirely (useful for tests that need exact placement).
func NewAllocator(l Layout, seed int64) *Allocator {
	a := &Allocator{heap: l.Heap, next: l.Heap.Start}
	if seed != 0 {
		a.rng = lazyrand.New(seed)
		a.maxGapPages = 16
	}
	return a
}

// Alloc reserves a region of n pages and returns it. It fails when the heap
// is exhausted — the caller chose a guest size too small for the workload,
// mirroring a guest OOM.
func (a *Allocator) Alloc(pages int64) (Region, error) {
	if pages <= 0 {
		return Region{}, fmt.Errorf("guest: allocation of %d pages", pages)
	}
	start := a.next
	if a.rng != nil && a.maxGapPages > 0 {
		start += PageID(a.rng.Int63n(a.maxGapPages + 1))
	}
	r := Region{Start: start, Pages: pages}
	if r.End() > a.heap.End() {
		return Region{}, fmt.Errorf("guest: heap exhausted: need %d pages at %d, heap ends at %d",
			pages, start, a.heap.End())
	}
	a.next = r.End()
	return r, nil
}

// AllocBytes reserves enough pages for n bytes.
func (a *Allocator) AllocBytes(n int64) (Region, error) {
	return a.Alloc(PagesForBytes(n))
}

// Remaining reports how many heap pages are still available (ignoring any
// jitter gap the next allocation might insert).
func (a *Allocator) Remaining() int64 {
	return int64(a.heap.End() - a.next)
}

// NormalizeRegions sorts a region list by start page and merges adjacent or
// overlapping entries, returning a minimal sorted cover of the same pages.
func NormalizeRegions(regions []Region) []Region {
	rs := make([]Region, 0, len(regions))
	for _, r := range regions {
		if !r.Empty() {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return nil
	}
	sortRegions(rs)
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End() {
			if r.End() > last.End() {
				last.Pages = int64(r.End() - last.Start)
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func sortRegions(rs []Region) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
}

// TotalPages sums the page counts of a region list.
func TotalPages(regions []Region) int64 {
	var n int64
	for _, r := range regions {
		n += r.Pages
	}
	return n
}

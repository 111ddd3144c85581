package access

import (
	"math/rand"
	"testing"

	"toss/internal/guest"
)

// denseHistogram is the per-page histogram Histogram replaced: a slice
// indexed by page id. It stays here as the reference the run-based
// histogram is checked against.
type denseHistogram struct {
	counts  []int64 // index: PageID
	nonzero int
}

func (h *denseHistogram) grow(p guest.PageID) {
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

func (h *denseHistogram) addEvent(e Event) {
	per := e.TouchesPerPage()
	if per == 0 || e.Region.Empty() {
		return
	}
	for p := e.Region.Start; p < e.Region.End(); p++ {
		h.add(p, per)
	}
}

func (h *denseHistogram) add(p guest.PageID, n int64) {
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

func (h *denseHistogram) count(p guest.PageID) int64 {
	if int64(p) >= int64(len(h.counts)) || p < 0 {
		return 0
	}
	return h.counts[p]
}

func (h *denseHistogram) total() int64 {
	var sum int64
	for _, c := range h.counts {
		sum += c
	}
	return sum
}

func (h *denseHistogram) merge(o *denseHistogram) {
	for p, c := range o.counts {
		if c != 0 {
			h.add(guest.PageID(p), c)
		}
	}
}

// mergeMax visits only the pages o touches. The dense MergeMax also
// visited o's untouched pages below its backing length, and so cleared
// negative counts there: a result that hung on o's allocation history, not
// on its counts.
func (h *denseHistogram) mergeMax(o *denseHistogram) {
	for p, c := range o.counts {
		if c != 0 && c > h.count(guest.PageID(p)) {
			h.add(guest.PageID(p), c-h.count(guest.PageID(p)))
		}
	}
}

func (h *denseHistogram) sorted() []PageCount {
	out := make([]PageCount, 0, h.nonzero)
	for p, c := range h.counts {
		if c != 0 {
			out = append(out, PageCount{guest.PageID(p), c})
		}
	}
	return out
}

func (h *denseHistogram) touchedRegions() []guest.Region {
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

// checkAgainstDense fails unless h holds the same per-page counts as ref
// through every read accessor, and its runs are canonical: sorted,
// disjoint, nonzero, and coalesced wherever neighbours are equal.
func checkAgainstDense(t *testing.T, h *Histogram, ref *denseHistogram) {
	t.Helper()
	for i, r := range h.runs {
		if r.Count == 0 || r.Region.Empty() {
			t.Fatalf("run %d = %+v is empty or zero", i, r)
		}
		if i > 0 {
			prev := h.runs[i-1]
			if r.Region.Start < prev.Region.End() {
				t.Fatalf("runs %d and %d overlap or are out of order: %+v %+v", i-1, i, prev, r)
			}
			if r.Region.Start == prev.Region.End() && r.Count == prev.Count {
				t.Fatalf("runs %d and %d are adjacent with equal counts: %+v %+v", i-1, i, prev, r)
			}
		}
	}
	got, want := h.Sorted(), ref.sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted has %d pages, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted[%d] = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if h.Len() != ref.nonzero || h.Total() != ref.total() {
		t.Fatalf("Len/Total = %d/%d, reference %d/%d", h.Len(), h.Total(), ref.nonzero, ref.total())
	}
	for p := guest.PageID(-2); p < guest.PageID(len(ref.counts))+2; p++ {
		if h.Count(p) != ref.count(p) {
			t.Fatalf("Count(%d) = %d, reference %d", p, h.Count(p), ref.count(p))
		}
	}
	gr, wr := h.TouchedRegions(), ref.touchedRegions()
	if len(gr) != len(wr) {
		t.Fatalf("TouchedRegions = %v, reference %v", gr, wr)
	}
	for i := range wr {
		if gr[i] != wr[i] {
			t.Fatalf("TouchedRegions = %v, reference %v", gr, wr)
		}
	}
}

// histOps drives a run-based histogram and its dense reference through the
// same writes, decoded from data five bytes at a time: an operation, a
// page, a length and a signed count. Counts are small and signed, so sums
// cross zero and clear pages, which Add allows.
func histOps(t *testing.T, data []byte) {
	h, ref := NewHistogram(), &denseHistogram{}
	other, otherRef := NewHistogram(), &denseHistogram{}
	for ; len(data) >= 5; data = data[5:] {
		op, page, pages, n := data[0]%6, guest.PageID(data[1])|guest.PageID(data[2]&1)<<8, int64(data[3]%24), int64(int8(data[4]))
		r := guest.Region{Start: page, Pages: pages}
		switch op {
		case 0:
			h.Add(page, n)
			ref.add(page, n)
		case 1:
			h.AddRegion(r, n)
			for p := r.Start; p < r.End(); p++ {
				ref.add(p, n)
			}
		case 2:
			e := Event{Region: r, LinesPerPage: int(data[4]%8) + 1, Repeat: int(data[4]>>3%4) + 1}
			h.AddEvent(e)
			ref.addEvent(e)
		case 3:
			other.AddRegion(r, n)
			for p := r.Start; p < r.End(); p++ {
				otherRef.add(p, n)
			}
		case 4:
			h.Merge(other)
			ref.merge(otherRef)
		case 5:
			h.MergeMax(other)
			ref.mergeMax(otherRef)
		}
		checkAgainstDense(t, h, ref)
	}
	checkAgainstDense(t, other, otherRef)
	c := h.Clone()
	if !c.Equal(h) {
		t.Fatal("Clone differs from its source")
	}
	c.Add(600, 1)
	if c.Equal(h) || h.Count(600) != ref.count(600) {
		t.Fatal("Clone shares state with its source")
	}
}

// FuzzHistogram checks the run-based histogram against the dense
// per-page reference under arbitrary sequences of writes.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	// Overlapping regions, then a cancelling add that clears the middle.
	f.Add([]byte{1, 10, 0, 8, 5, 1, 14, 0, 8, 3, 1, 12, 0, 4, 0xfb})
	// Merge and max-merge of a second histogram with negative counts.
	f.Add([]byte{1, 0, 0, 16, 4, 3, 4, 0, 8, 0xfe, 3, 10, 0, 3, 9, 4, 0, 0, 0, 0, 5, 0, 0, 0, 0})
	// Single pages appended, coalesced, then split by an event.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 0, 0, 2, 0, 3, 0, 0, 2, 2, 2, 0, 1, 17})
	f.Fuzz(histOps)
}

// TestHistogramMatchesDenseRandom runs seeded random write sequences
// against the dense reference, so the differential check runs in every
// test pass, not only under fuzzing.
func TestHistogramMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		data := make([]byte, 5*(1+rng.Intn(40)))
		rng.Read(data)
		histOps(t, data)
	}
}

// TestTraceCountsMatchesDense builds random traces and compares Counts'
// boundary sweep with the dense per-event fold.
func TestTraceCountsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		var tr Trace
		ref := &denseHistogram{}
		for j := rng.Intn(30); j >= 0; j-- {
			e := Event{
				Region:       guest.Region{Start: guest.PageID(rng.Intn(300)), Pages: int64(1 + rng.Intn(40))},
				LinesPerPage: 1 + rng.Intn(guest.LinesPerPage),
				Repeat:       1 + rng.Intn(5),
			}
			tr.Append(e)
			ref.addEvent(e)
		}
		checkAgainstDense(t, tr.Counts(), ref)
	}
}

// TestAddPageByPageScales appends 65,536 single-page regions in address
// order, the way tests and the DAMON audit build histograms: each append
// lands past the last run, which must cost amortized O(1), not a copy of
// the runs.
func TestAddPageByPageScales(t *testing.T) {
	h := NewHistogram()
	for p := guest.PageID(0); p < 1<<17; p += 2 {
		h.Add(p, int64(p%3)+1)
	}
	if h.Len() != 1<<16 || len(h.Runs()) != 1<<16 {
		t.Fatalf("Len = %d, runs = %d, want 65536 each", h.Len(), len(h.Runs()))
	}
}

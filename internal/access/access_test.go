package access

import (
	"testing"
	"testing/quick"

	"toss/internal/guest"
)

func validEvent() Event {
	return Event{
		Region:       guest.Region{Start: 10, Pages: 4},
		LinesPerPage: 8,
		Repeat:       3,
		Kind:         Read,
		Pattern:      Sequential,
		HitRatio:     0.5,
		CPUPerLine:   1.0,
	}
}

func TestEventValidate(t *testing.T) {
	if err := validEvent().Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	bad := []func(*Event){
		func(e *Event) { e.Region.Pages = 0 },
		// A region starting at page -4 names pages outside the guest.
		func(e *Event) { e.Region = guest.Region{Start: -4, Pages: 8} },
		func(e *Event) { e.LinesPerPage = 0 },
		func(e *Event) { e.LinesPerPage = guest.LinesPerPage + 1 },
		func(e *Event) { e.Repeat = 0 },
		func(e *Event) { e.HitRatio = -0.1 },
		func(e *Event) { e.HitRatio = 1.1 },
		func(e *Event) { e.CPUPerLine = -1 },
	}
	for i, mutate := range bad {
		e := validEvent()
		mutate(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEventTouches(t *testing.T) {
	e := validEvent() // 4 pages * 8 lines * 3 repeats
	if got := e.LineTouches(); got != 96 {
		t.Errorf("LineTouches = %d, want 96", got)
	}
	if got := e.TouchesPerPage(); got != 24 {
		t.Errorf("TouchesPerPage = %d, want 24", got)
	}
}

func TestKindPatternString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Kind.String wrong")
	}
	if Sequential.String() != "seq" || Random.String() != "rand" {
		t.Error("Pattern.String wrong")
	}
	if Kind(9).String() == "" || Pattern(9).String() == "" {
		t.Error("unknown enum String empty")
	}
}

func TestTraceAppendPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append of invalid event did not panic")
		}
	}()
	var tr Trace
	e := validEvent()
	e.Repeat = 0
	tr.Append(e)
}

func TestTracePagesAndFootprint(t *testing.T) {
	var tr Trace
	e1 := validEvent()                            // [10,14)
	e2 := validEvent()                            // overlapping
	e2.Region = guest.Region{Start: 12, Pages: 4} // [12,16)
	e3 := validEvent()
	e3.Region = guest.Region{Start: 100, Pages: 2}
	tr.Append(e1)
	tr.Append(e2)
	tr.Append(e3)
	pages := tr.Pages()
	want := []guest.Region{{Start: 10, Pages: 6}, {Start: 100, Pages: 2}}
	if len(pages) != 2 || pages[0] != want[0] || pages[1] != want[1] {
		t.Errorf("Pages() = %v, want %v", pages, want)
	}
	if got := tr.FootprintPages(); got != 8 {
		t.Errorf("FootprintPages = %d, want 8", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestHistogramAddEvent(t *testing.T) {
	h := NewHistogram()
	h.AddEvent(validEvent())
	if got := h.Count(10); got != 24 {
		t.Errorf("Count(10) = %d, want 24", got)
	}
	if got := h.Count(14); got != 0 {
		t.Errorf("Count(14) = %d, want 0", got)
	}
	if h.Len() != 4 {
		t.Errorf("Len = %d, want 4", h.Len())
	}
	if h.Total() != 96 {
		t.Errorf("Total = %d, want 96", h.Total())
	}
}

func TestHistogramMergeAndMergeMax(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1, 10)
	a.Add(2, 5)
	b.Add(2, 7)
	b.Add(3, 1)

	sum := a.Clone()
	sum.Merge(b)
	if sum.Count(1) != 10 || sum.Count(2) != 12 || sum.Count(3) != 1 {
		t.Errorf("Merge wrong: %v %v %v", sum.Count(1), sum.Count(2), sum.Count(3))
	}

	mx := a.Clone()
	mx.MergeMax(b)
	if mx.Count(1) != 10 || mx.Count(2) != 7 || mx.Count(3) != 1 {
		t.Errorf("MergeMax wrong: %v %v %v", mx.Count(1), mx.Count(2), mx.Count(3))
	}
}

func TestHistogramEqual(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(1, 2)
	if a.Equal(b) {
		t.Error("unequal histograms reported equal")
	}
	b.Add(1, 2)
	if !a.Equal(b) {
		t.Error("equal histograms reported unequal")
	}
	b.Add(9, 0) // adding zero is a no-op
	if !a.Equal(b) {
		t.Error("zero add changed equality")
	}
	b.Add(9, 5)
	if a.Equal(b) {
		t.Error("histograms with different entries reported equal")
	}
}

func TestHistogramSortedAndTouchedRegions(t *testing.T) {
	h := NewHistogram()
	h.Add(5, 1)
	h.Add(3, 2)
	h.Add(4, 9)
	h.Add(10, 1)
	s := h.Sorted()
	if len(s) != 4 || s[0].Page != 3 || s[3].Page != 10 {
		t.Errorf("Sorted() = %v", s)
	}
	regions := h.TouchedRegions()
	want := []guest.Region{{Start: 3, Pages: 3}, {Start: 10, Pages: 1}}
	if len(regions) != 2 || regions[0] != want[0] || regions[1] != want[1] {
		t.Errorf("TouchedRegions = %v, want %v", regions, want)
	}
}

// Property: for any event, histogram total equals LineTouches.
func TestHistogramTotalMatchesEventProperty(t *testing.T) {
	f := func(start uint16, pages, lines, repeat uint8) bool {
		e := Event{
			Region:       guest.Region{Start: guest.PageID(start), Pages: int64(pages%32) + 1},
			LinesPerPage: int(lines%guest.LinesPerPage) + 1,
			Repeat:       int(repeat%16) + 1,
		}
		h := NewHistogram()
		h.AddEvent(e)
		return h.Total() == e.LineTouches() && int64(h.Len()) == e.Region.Pages
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge is commutative with respect to resulting counts.
func TestHistogramMergeCommutativeProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewHistogram(), NewHistogram()
		for _, x := range xs {
			a.Add(guest.PageID(x%16), int64(x))
		}
		for _, y := range ys {
			b.Add(guest.PageID(y%16), int64(y))
		}
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MergeMax result dominates both inputs pointwise.
func TestHistogramMergeMaxDominatesProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewHistogram(), NewHistogram()
		for _, x := range xs {
			a.Add(guest.PageID(x%16), int64(x))
		}
		for _, y := range ys {
			b.Add(guest.PageID(y%16), int64(y))
		}
		m := a.Clone()
		m.MergeMax(b)
		for p := guest.PageID(0); p < 16; p++ {
			if m.Count(p) < a.Count(p) || m.Count(p) < b.Count(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package guest

import (
	"testing"
	"testing/quick"
)

func TestRegionBasics(t *testing.T) {
	r := Region{Start: 10, Pages: 5}
	if r.End() != 15 {
		t.Errorf("End() = %d, want 15", r.End())
	}
	if r.Bytes() != 5*PageSize {
		t.Errorf("Bytes() = %d, want %d", r.Bytes(), 5*PageSize)
	}
	if r.String() != "[10,15)" {
		t.Errorf("String() = %q", r.String())
	}
}

func TestRegionOverlapsAdjacent(t *testing.T) {
	a := Region{0, 10}
	if !a.Adjacent(Region{10, 5}) {
		t.Error("Adjacent not detected")
	}
	if a.Adjacent(Region{9, 2}) || a.Adjacent(Region{11, 2}) {
		t.Error("overlapping or gapped region reported adjacent")
	}
}

func TestRegionSplit(t *testing.T) {
	a, b := Region{4, 10}.Split(3)
	if a != (Region{4, 3}) || b != (Region{7, 7}) {
		t.Errorf("Split = %v, %v", a, b)
	}
}

func TestRegionSplitPanics(t *testing.T) {
	for _, off := range []int64{0, 10, -1, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%d) did not panic", off)
				}
			}()
			Region{0, 10}.Split(off)
		}()
	}
}

func TestPagesForBytes(t *testing.T) {
	cases := []struct {
		bytes, pages int64
	}{{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {128 << 20, 32768}}
	for _, c := range cases {
		if got := PagesForBytes(c.bytes); got != c.pages {
			t.Errorf("PagesForBytes(%d) = %d, want %d", c.bytes, got, c.pages)
		}
	}
}

func TestNewLayout(t *testing.T) {
	l, err := NewLayout(mib(128), mib(48))
	if err != nil {
		t.Fatal(err)
	}
	if l.TotalPages != 32768 {
		t.Errorf("TotalPages = %d", l.TotalPages)
	}
	if l.BootImage.Pages != 12288 {
		t.Errorf("BootImage.Pages = %d", l.BootImage.Pages)
	}
	if l.Heap.Start != 12288 || l.Heap.Pages != 32768-12288 {
		t.Errorf("Heap = %v", l.Heap)
	}
}

func TestNewLayoutErrors(t *testing.T) {
	if _, err := NewLayout(0, 0); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := NewLayout(mib(1), mib(2)); err == nil {
		t.Error("oversized boot image accepted")
	}
	if _, err := NewLayout(mib(1), -1); err == nil {
		t.Error("negative boot image accepted")
	}
}

func TestAllocatorNoJitterIsDeterministicAndPacked(t *testing.T) {
	l, _ := NewLayout(mib(16), mib(4))
	a := NewAllocator(l, 0)
	r1, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Alloc(20)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Start != l.Heap.Start {
		t.Errorf("first alloc at %d, want heap start %d", r1.Start, l.Heap.Start)
	}
	if r2.Start != r1.End() {
		t.Errorf("second alloc at %d, want %d (packed)", r2.Start, r1.End())
	}
}

func TestAllocatorJitterVariesWithSeed(t *testing.T) {
	l, _ := NewLayout(mib(64), mib(4))
	starts := map[PageID]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		a := NewAllocator(l, seed)
		r, err := a.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		starts[r.Start] = true
	}
	if len(starts) < 2 {
		t.Errorf("jittered allocations all identical across 20 seeds: %v", starts)
	}
}

func TestAllocatorSameSeedSamePlacement(t *testing.T) {
	l, _ := NewLayout(mib(64), mib(4))
	a1, a2 := NewAllocator(l, 42), NewAllocator(l, 42)
	for i := 0; i < 5; i++ {
		r1, err1 := a1.Alloc(int64(10 + i))
		r2, err2 := a2.Alloc(int64(10 + i))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1 != r2 {
			t.Errorf("alloc %d: %v vs %v with same seed", i, r1, r2)
		}
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	l, _ := NewLayout(mib(1), 0)
	a := NewAllocator(l, 0)
	if _, err := a.Alloc(l.Heap.Pages + 1); err == nil {
		t.Error("over-allocation succeeded")
	}
	if _, err := a.Alloc(l.Heap.Pages); err != nil {
		t.Errorf("exact-fit allocation failed: %v", err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Error("allocation from empty heap succeeded")
	}
}

func TestAllocatorRejectsNonPositive(t *testing.T) {
	l, _ := NewLayout(mib(1), 0)
	a := NewAllocator(l, 0)
	if _, err := a.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-3); err == nil {
		t.Error("Alloc(-3) succeeded")
	}
}

func TestAllocBytes(t *testing.T) {
	l, _ := NewLayout(mib(8), 0)
	a := NewAllocator(l, 0)
	r, err := a.AllocBytes(PageSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages != 2 {
		t.Errorf("AllocBytes(PageSize+1) = %d pages, want 2", r.Pages)
	}
}

func TestNormalizeRegions(t *testing.T) {
	in := []Region{{10, 5}, {0, 4}, {15, 2}, {3, 2}, {30, 0}}
	got := NormalizeRegions(in)
	want := []Region{{0, 5}, {10, 7}}
	if len(got) != len(want) {
		t.Fatalf("NormalizeRegions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NormalizeRegions = %v, want %v", got, want)
		}
	}
}

func TestNormalizeRegionsEmpty(t *testing.T) {
	if got := NormalizeRegions(nil); got != nil {
		t.Errorf("NormalizeRegions(nil) = %v", got)
	}
	if got := NormalizeRegions([]Region{{5, 0}}); got != nil {
		t.Errorf("NormalizeRegions(empty region) = %v", got)
	}
}

// Property: NormalizeRegions preserves the set of covered pages and returns
// sorted, non-overlapping, non-adjacent regions.
func TestNormalizeRegionsProperty(t *testing.T) {
	f := func(raw []struct {
		Start uint8
		Pages uint8
	}) bool {
		var in []Region
		covered := map[PageID]bool{}
		for _, x := range raw {
			r := Region{Start: PageID(x.Start), Pages: int64(x.Pages % 16)}
			in = append(in, r)
			for p := r.Start; p < r.End(); p++ {
				covered[p] = true
			}
		}
		out := NormalizeRegions(in)
		var outPages int64
		for i, r := range out {
			if r.Empty() {
				return false
			}
			if i > 0 && out[i-1].End() >= r.Start {
				return false // unsorted, overlapping, or mergeable
			}
			outPages += r.Pages
			for p := r.Start; p < r.End(); p++ {
				if !covered[p] {
					return false
				}
			}
		}
		return outPages == int64(len(covered))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalPages(t *testing.T) {
	if got := TotalPages([]Region{{0, 3}, {10, 7}}); got != 10 {
		t.Errorf("TotalPages = %d, want 10", got)
	}
	if got := TotalPages(nil); got != 0 {
		t.Errorf("TotalPages(nil) = %d", got)
	}
}

// mib converts a mebibyte count to bytes.
func mib(n int64) int64 { return n << 20 }

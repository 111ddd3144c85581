package mem

import (
	"testing"

	"toss/internal/guest"
	"toss/internal/simtime"
)

func TestHierarchyCapacitySemantics(t *testing.T) {
	h := DefaultHierarchy()
	h.Tiers[0].CapacityPages = 100
	h.Tiers[1].CapacityPages = 0 // absent middle tier
	h.Tiers[2].CapacityPages = 500
	// Bottom stays 0 => unbounded.
	if got := h.Capacity(0); got != 100 {
		t.Fatalf("Capacity(0) = %d, want 100", got)
	}
	if got := h.Capacity(1); got != 0 {
		t.Fatalf("zero-size middle tier must have capacity 0, got %d", got)
	}
	if !h.Unbounded(3) || h.Unbounded(2) || h.Unbounded(1) {
		t.Fatalf("only the bottom tier with zero capacity is unbounded")
	}
	if h.Capacity(3) < 1<<40 {
		t.Fatalf("unbounded bottom capacity too small: %d", h.Capacity(3))
	}
	cost := h.ProvisionedCost(1000)
	want := 100*1.0 + 0*0.4 + 500*0.1 + 1000*0.01
	if cost != want {
		t.Fatalf("ProvisionedCost = %v, want %v", cost, want)
	}
}

func TestHierarchyMoveCost(t *testing.T) {
	h := DefaultHierarchy()
	// Promotion into dram: paid at dram's promote bandwidth.
	pages := int64(1 << 18) // 1 GiB
	d := h.MoveCost(2, 0, pages)
	want := simtime.Duration(float64(pages*guest.PageSize) / float64(12<<30) * float64(simtime.Second))
	if d != want {
		t.Fatalf("promote MoveCost = %v, want %v", d, want)
	}
	// Demotion into object: paid at the object tier's demote bandwidth.
	d = h.MoveCost(0, 3, pages)
	want = simtime.Duration(float64(pages*guest.PageSize) / float64(256<<20) * float64(simtime.Second))
	if d != want {
		t.Fatalf("demote MoveCost = %v, want %v", d, want)
	}
	if h.MoveCost(1, 1, pages) != 0 || h.MoveCost(0, 1, 0) != 0 {
		t.Fatalf("same-level and zero-page moves must be free")
	}
	free := h
	free.Tiers[0].PromoteBytesPerSec = 0
	if free.MoveCost(2, 0, pages) != 0 {
		t.Fatalf("unset bandwidth must make moves free")
	}
}

func TestMultiPlacementSetAndLookup(t *testing.T) {
	mp, err := NewMultiPlacement(4, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := mp.LevelOf(500); got != 3 {
		t.Fatalf("default level = %d, want 3", got)
	}
	mp.Set(guest.Region{Start: 100, Pages: 100}, 0)
	mp.Set(guest.Region{Start: 200, Pages: 100}, 1)
	mp.Set(guest.Region{Start: 150, Pages: 100}, 2) // straddles both
	for _, tc := range []struct {
		page guest.PageID
		want int
	}{{99, 3}, {100, 0}, {149, 0}, {150, 2}, {249, 2}, {250, 1}, {299, 1}, {300, 3}} {
		if got := mp.LevelOf(tc.page); got != tc.want {
			t.Fatalf("LevelOf(%d) = %d, want %d", tc.page, got, tc.want)
		}
	}
	segs := mp.Segments(guest.Region{Start: 90, Pages: 220})
	want := []LevelSegment{
		{Region: guest.Region{Start: 90, Pages: 10}, Level: 3},
		{Region: guest.Region{Start: 100, Pages: 50}, Level: 0},
		{Region: guest.Region{Start: 150, Pages: 100}, Level: 2},
		{Region: guest.Region{Start: 250, Pages: 50}, Level: 1},
		{Region: guest.Region{Start: 300, Pages: 10}, Level: 3},
	}
	if len(segs) != len(want) {
		t.Fatalf("Segments = %v, want %v", segs, want)
	}
	for i := range segs {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
	occ := mp.Occupancy()
	if occ[0] != 50 || occ[1] != 50 || occ[2] != 100 || occ[3] != 800 {
		t.Fatalf("Occupancy = %v", occ)
	}
	var sum int64
	for _, n := range occ {
		sum += n
	}
	if sum != 1000 {
		t.Fatalf("occupancy sums to %d, want 1000", sum)
	}

	// Setting back to the default level erases coverage; adjacent
	// same-level runs coalesce.
	mp.Set(guest.Region{Start: 150, Pages: 100}, 3)
	if got := mp.LevelOf(200); got != 3 {
		t.Fatalf("reset to default: LevelOf(200) = %d, want 3", got)
	}
	mp2, _ := NewMultiPlacement(4, 3, 1000)
	mp2.Set(guest.Region{Start: 0, Pages: 10}, 1)
	mp2.Set(guest.Region{Start: 10, Pages: 10}, 1)
	if len(mp2.runs) != 1 || mp2.runs[0].region.Pages != 20 {
		t.Fatalf("adjacent same-level runs must coalesce: %+v", mp2.runs)
	}
	// Clipping.
	mp2.Set(guest.Region{Start: 990, Pages: 100}, 0)
	if occ := mp2.Occupancy(); occ[0] != 10 {
		t.Fatalf("clipped set placed %d pages at level 0, want 10", occ[0])
	}
}

// Occupancy returns the number of pages at each level. The default level
// absorbs every page not explicitly placed.
func (mp *MultiPlacement) Occupancy() []int64 {
	occ := make([]int64, mp.levels)
	var covered int64
	for _, run := range mp.runs {
		occ[run.level] += run.region.Pages
		covered += run.region.Pages
	}
	occ[mp.defLevel] += mp.totalPages - covered
	return occ
}

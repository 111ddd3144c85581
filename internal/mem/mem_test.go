package mem

import (
	"testing"
	"testing/quick"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/simtime"
)

// The paper's pair is a valid two-level hierarchy whose tiers are named the
// way spans and obs exports spell them.
func TestTierString(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Levels() != 2 || c.Tiers[Fast].Name != "fast" || c.Tiers[Slow].Name != "slow" {
		t.Errorf("DefaultConfig tiers = %+v, want fast, slow", c.Tiers)
	}
}

func TestDefaultConfigOrdering(t *testing.T) {
	c := DefaultConfig()
	// Slow tier must be slower than fast for every pattern/kind.
	for _, p := range []access.Pattern{access.Sequential, access.Random} {
		for _, k := range []access.Kind{access.Read, access.Write} {
			f := c.LineCost(Fast, p, k, 1)
			s := c.LineCost(Slow, p, k, 1)
			if s <= f {
				t.Errorf("slow %v/%v cost %v not > fast %v", p, k, s, f)
			}
		}
	}
	// Random must cost more than sequential within a tier.
	for _, level := range []int{Fast, Slow} {
		if c.LineCost(level, access.Random, access.Read, 1) <= c.LineCost(level, access.Sequential, access.Read, 1) {
			t.Errorf("level %d: random read not costlier than sequential", level)
		}
	}
	// Cache hits are cheaper than any memory access.
	if float64(c.CacheHit) >= c.LineCost(Fast, access.Sequential, access.Read, 1) {
		t.Error("cache hit not cheaper than fastest memory access")
	}
}

func TestContentionFactor(t *testing.T) {
	c := DefaultConfig()
	if got := c.ContentionFactor(Slow, 1); got != 1 {
		t.Errorf("ContentionFactor(slow,1) = %v, want 1", got)
	}
	if got := c.ContentionFactor(Slow, 0); got != 1 {
		t.Errorf("ContentionFactor(slow,0) = %v, want 1 (clamped)", got)
	}
	f5 := c.ContentionFactor(Slow, 5)
	f20 := c.ContentionFactor(Slow, 20)
	if !(f20 > f5 && f5 > 1) {
		t.Errorf("slow contention not increasing: f5=%v f20=%v", f5, f20)
	}
	// DRAM contention must be much milder than PMem contention.
	if c.ContentionFactor(Fast, 20) >= c.ContentionFactor(Slow, 20) {
		t.Error("fast tier contends as much as slow tier")
	}
}

// pageCost is the time one page of e costs at a level.
func pageCost(h Hierarchy, e access.Event, level, concurrency int) simtime.Duration {
	var m MultiMeter
	return m.ChargePages(h, e, level, concurrency, 1)
}

func TestEventPageCostTierSensitivity(t *testing.T) {
	c := DefaultConfig()
	e := access.Event{
		Region:       guest.Region{Start: 0, Pages: 1},
		LinesPerPage: 64,
		Repeat:       100,
		Kind:         access.Read,
		Pattern:      access.Random,
		HitRatio:     0,
	}
	fast := pageCost(c, e, Fast, 1)
	slow := pageCost(c, e, Slow, 1)
	ratio := float64(slow) / float64(fast)
	if ratio < 3 || ratio > 4.5 {
		t.Errorf("random-read slow/fast ratio = %v, want ~3.75", ratio)
	}
}

func TestEventPageCostHitRatioShielding(t *testing.T) {
	c := DefaultConfig()
	e := access.Event{
		Region:       guest.Region{Start: 0, Pages: 1},
		LinesPerPage: 64,
		Repeat:       100,
		Kind:         access.Read,
		Pattern:      access.Random,
		HitRatio:     0.99, // cache-resident kernel
		CPUPerLine:   2,
	}
	fast := pageCost(c, e, Fast, 1)
	slow := pageCost(c, e, Slow, 1)
	ratio := float64(slow) / float64(fast)
	if ratio > 1.6 {
		t.Errorf("cache-resident kernel still tier-sensitive: ratio %v", ratio)
	}
}

func TestEventPageCostCPUOnly(t *testing.T) {
	c := DefaultConfig()
	e := access.Event{
		Region:       guest.Region{Start: 0, Pages: 1},
		LinesPerPage: 1,
		Repeat:       1000,
		Kind:         access.Read,
		Pattern:      access.Sequential,
		HitRatio:     1,
		CPUPerLine:   10,
	}
	got := pageCost(c, e, Slow, 1)
	// 1000 touches * (1*1ns hit + 10ns cpu) = 11µs
	want := simtime.Duration(11000)
	if got != want {
		t.Errorf("page cost = %v, want %v", got, want)
	}
}

func TestMeterChargeAndStallFraction(t *testing.T) {
	c := DefaultConfig()
	var m MultiMeter
	memBound := access.Event{
		Region: guest.Region{Start: 0, Pages: 1}, LinesPerPage: 64, Repeat: 100,
		Kind: access.Read, Pattern: access.Random, HitRatio: 0,
	}
	d := m.ChargePages(c, memBound, Slow, 1, 1)
	if d != m.Total() {
		t.Errorf("ChargePages returned %v, meter total %v", d, m.Total())
	}
	if m.LineTouches[Slow] != 6400 || m.LineTouches[Fast] != 0 {
		t.Errorf("LineTouches = %v", m.LineTouches)
	}
	if m.Contended != [MaxLevels]simtime.Duration{} {
		t.Errorf("Contended = %v at concurrency 1, want zero", m.Contended)
	}
	if sf := m.StallFraction(); sf < 0.95 {
		t.Errorf("memory-bound stall fraction = %v, want >0.95", sf)
	}

	// Above concurrency 1 the contention wait is booked separately, exactly:
	// the memory time charged minus the same touches at concurrency 1.
	var m20 MultiMeter
	m20.ChargePages(c, memBound, Slow, 20, 3)
	var m1 MultiMeter
	m1.ChargePages(c, memBound, Slow, 1, 3)
	if got, want := m20.Contended[Slow], m20.MemTime[Slow]-m1.MemTime[Slow]; got <= 0 || got != want {
		t.Errorf("Contended[slow] = %v, want %v > 0", got, want)
	}
	m20.ChargeStall(Slow, 5*simtime.Microsecond)
	if got, want := m20.Contended[Slow], m20.MemTime[Slow]-5*simtime.Microsecond-m1.MemTime[Slow]; got != want {
		t.Errorf("ChargeStall moved Contended[slow] to %v, want %v", got, want)
	}

	var m2 MultiMeter
	cpuBound := memBound
	cpuBound.HitRatio = 1
	cpuBound.CPUPerLine = 50
	m2.ChargePages(c, cpuBound, Slow, 1, 1)
	if sf := m2.StallFraction(); sf > 0.05 {
		t.Errorf("cpu-bound stall fraction = %v, want ~0", sf)
	}
}

func TestMeterStallFractionEmpty(t *testing.T) {
	var m MultiMeter
	if m.StallFraction() != 0 {
		t.Error("empty meter stall fraction not 0")
	}
}

// twoLevelPlacement places slow regions of a guest in the slow tier and
// every other page in the fast tier.
func twoLevelPlacement(t testing.TB, totalPages int64, slow ...guest.Region) *MultiPlacement {
	t.Helper()
	mp, err := NewMultiPlacement(2, Fast, totalPages)
	if err != nil {
		t.Fatal(err)
	}
	mp.SetRegions(slow, Slow)
	return mp
}

func TestPlacementTierOf(t *testing.T) {
	pl := twoLevelPlacement(t, 128, guest.Region{Start: 10, Pages: 5}, guest.Region{Start: 100, Pages: 1})
	cases := []struct {
		p    guest.PageID
		want int
	}{{0, Fast}, {9, Fast}, {10, Slow}, {14, Slow}, {15, Fast}, {99, Fast}, {100, Slow}, {101, Fast}}
	for _, tc := range cases {
		if got := pl.LevelOf(tc.p); got != tc.want {
			t.Errorf("LevelOf(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPlacementHelpers(t *testing.T) {
	if occ := twoLevelPlacement(t, 100).Occupancy(); occ[Slow] != 0 || occ[Fast] != 100 {
		t.Errorf("all-fast occupancy = %v", occ)
	}
	allSlow, err := NewMultiPlacement(2, Slow, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := allSlow.Regions(Slow); len(got) != 1 || got[0] != (guest.Region{Start: 0, Pages: 100}) {
		t.Errorf("all-slow Regions(slow) = %v", got)
	}
	if got := allSlow.Regions(Fast); len(got) != 0 {
		t.Errorf("all-slow Regions(fast) = %v", got)
	}
	regs := twoLevelPlacement(t, 10, guest.Region{Start: 5, Pages: 2}, guest.Region{Start: 1, Pages: 2}).Regions(Slow)
	if len(regs) != 2 || regs[0] != (guest.Region{Start: 1, Pages: 2}) {
		t.Errorf("Regions(slow) = %v", regs)
	}
	if _, err := NewMultiPlacement(MaxLevels+1, 0, 10); err == nil {
		t.Error("placement deeper than MaxLevels accepted")
	}
}

// Property: LevelOf agrees with a naive linear scan of slow regions.
func TestPlacementTierOfProperty(t *testing.T) {
	f := func(raw []uint8, probe uint8) bool {
		var regions []guest.Region
		for _, x := range raw {
			regions = append(regions, guest.Region{Start: guest.PageID(x % 64), Pages: int64(x%5) + 1})
		}
		pl := twoLevelPlacement(t, 80, regions...)
		p := guest.PageID(probe % 80)
		want := Fast
		for _, r := range regions {
			if p >= r.Start && p < r.End() {
				want = Slow
			}
		}
		return pl.LevelOf(p) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: contention never decreases cost and concurrency 1 is neutral.
func TestContentionMonotoneProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(k uint8) bool {
		conc := int(k%32) + 1
		base := c.LineCost(Slow, access.Random, access.Read, 1)
		cur := c.LineCost(Slow, access.Random, access.Read, conc)
		return cur >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

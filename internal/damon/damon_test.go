package damon

import (
	"slices"
	"testing"
	"testing/quick"

	"toss/internal/access"
	"toss/internal/guest"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if f := DefaultConfig().OverheadFactor(); f != 1.03 {
		t.Errorf("OverheadFactor = %v, want 1.03", f)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.SamplingInterval = 0 },
		func(c *Config) { c.MinRegionPages = 0 },
		func(c *Config) { c.MaxRegions = 0 },
		func(c *Config) { c.NoiseAmplitude = -0.1 },
		func(c *Config) { c.NoiseAmplitude = 1.0 },
		func(c *Config) { c.OverheadFraction = -1 },
	}
	for i, m := range mutations {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// flatHistogram builds a histogram where [start,start+pages) all have count n.
func flatHistogram(start guest.PageID, pages int64, n int64) *access.Histogram {
	h := access.NewHistogram()
	addRegion(h, guest.Region{Start: start, Pages: pages}, n)
	return h
}

// addRegion credits every page of r with n touches through Update, the
// histogram's one write path.
func addRegion(h *access.Histogram, r guest.Region, n int64) {
	h.Update([]access.Run{{Region: r, Count: n}}, func(old, v int64) int64 { return old + v })
}

// addPage credits page p with n touches.
func addPage(h *access.Histogram, p guest.PageID, n int64) {
	addRegion(h, guest.Region{Start: p, Pages: 1}, n)
}

func TestProfileEmpty(t *testing.T) {
	c := DefaultConfig()
	p := c.Profile(access.NewHistogram(), 1000, 1)
	if len(p.Records) != 0 {
		t.Errorf("empty truth produced %d records", len(p.Records))
	}
}

func TestProfileMergesUniformRegion(t *testing.T) {
	c := DefaultConfig()
	c.NoiseAmplitude = 0
	truth := flatHistogram(100, 64, 500)
	p := c.Profile(truth, 10000, 1)
	if len(p.Records) != 1 {
		t.Fatalf("uniform 64-page run produced %d records, want 1: %v", len(p.Records), p.Records)
	}
	rec := p.Records[0]
	if rec.Region.Start != 100 || rec.Region.Pages != 64 {
		t.Errorf("region = %v", rec.Region)
	}
	if rec.NrAccesses != 500 {
		t.Errorf("NrAccesses = %d, want 500", rec.NrAccesses)
	}
}

func TestProfileSeparatesDistinctIntensities(t *testing.T) {
	c := DefaultConfig()
	c.NoiseAmplitude = 0
	truth := flatHistogram(0, 16, 10)
	hot := flatHistogram(16, 16, 10000)
	truth.Update(hot.Runs(), func(old, v int64) int64 { return old + v })
	p := c.Profile(truth, 10000, 1)
	if len(p.Records) != 2 {
		t.Fatalf("two-intensity truth produced %d records: %v", len(p.Records), p.Records)
	}
	if p.Records[0].NrAccesses >= p.Records[1].NrAccesses {
		t.Errorf("expected cold then hot, got %v", p.Records)
	}
}

func TestProfileRespectsMinRegionGranularity(t *testing.T) {
	c := DefaultConfig()
	c.NoiseAmplitude = 0
	// A single touched page: DAMON can't see below 4 pages, so the record
	// covers the 4-page granule with the count averaged down.
	truth := access.NewHistogram()
	addPage(truth, 200, 400)
	p := c.Profile(truth, 10000, 1)
	if len(p.Records) != 1 {
		t.Fatalf("records = %v", p.Records)
	}
	if p.Records[0].Region.Pages != 4 {
		t.Errorf("granule pages = %d, want 4", p.Records[0].Region.Pages)
	}
	if p.Records[0].NrAccesses != 100 {
		t.Errorf("averaged count = %d, want 100", p.Records[0].NrAccesses)
	}
}

func TestProfileCapsRegions(t *testing.T) {
	c := DefaultConfig()
	c.NoiseAmplitude = 0
	c.MaxRegions = 3
	// 8 adjacent granules with wildly different counts.
	truth := access.NewHistogram()
	for i := 0; i < 8; i++ {
		for p := 0; p < 4; p++ {
			addPage(truth, guest.PageID(i*4+p), int64(1<<(4*i)))
		}
	}
	p := c.Profile(truth, 10000, 1)
	if len(p.Records) > 3 {
		t.Errorf("MaxRegions=3 but got %d records", len(p.Records))
	}
	var pages int64
	for _, r := range p.Records {
		pages += r.Region.Pages
	}
	if pages != 32 {
		t.Errorf("records cover %d pages, want 32 (coverage preserved)", pages)
	}
}

func TestProfileDeterministicPerSeed(t *testing.T) {
	c := DefaultConfig()
	truth := flatHistogram(0, 128, 973)
	p1 := c.Profile(truth, 10000, 42)
	p2 := c.Profile(truth, 10000, 42)
	if len(p1.Records) != len(p2.Records) {
		t.Fatal("same seed produced different record counts")
	}
	for i := range p1.Records {
		if p1.Records[i] != p2.Records[i] {
			t.Fatalf("same seed diverged at record %d", i)
		}
	}
}

func TestProfileNoiseBounded(t *testing.T) {
	c := DefaultConfig() // 5% noise
	truth := flatHistogram(0, 4, 1000)
	for seed := int64(1); seed <= 50; seed++ {
		p := c.Profile(truth, 100, seed)
		if len(p.Records) != 1 {
			t.Fatalf("seed %d: %v", seed, p.Records)
		}
		n := p.Records[0].NrAccesses
		if n < 950 || n > 1050 {
			t.Errorf("seed %d: noisy count %d outside ±5%% of 1000", seed, n)
		}
	}
}

// TestPatternToHistogram checks the per-page view of a pattern, CountAt:
// every page of a record reads the record's count, and uncovered pages 0.
func TestPatternToHistogram(t *testing.T) {
	p := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 2}, NrAccesses: 7},
		{Region: guest.Region{Start: 10, Pages: 1}, NrAccesses: 3},
	}}
	for pg, want := range map[guest.PageID]int64{0: 7, 1: 7, 2: 0, 9: 0, 10: 3, 11: 0} {
		if got := p.CountAt(pg); got != want {
			t.Errorf("CountAt(%d) = %d, want %d", pg, got, want)
		}
	}
}

func TestBucket(t *testing.T) {
	cases := []struct {
		count int64
		want  int
	}{{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1024, 11}}
	for _, tc := range cases {
		if got := Bucket(tc.count); got != tc.want {
			t.Errorf("Bucket(%d) = %d, want %d", tc.count, got, tc.want)
		}
	}
}

func TestUnifiedFoldConvergence(t *testing.T) {
	u := NewUnified()
	p := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 100},
	}}
	if !u.Fold(p) {
		t.Fatal("first fold reported no change")
	}
	// Same pattern again: no change.
	if u.Fold(p) {
		t.Error("identical re-fold reported change")
	}
	// Small (same-bucket) noise: no change.
	noisy := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 110},
	}}
	if u.Fold(noisy) {
		t.Error("same-bucket noise reported change")
	}
	// Count jumped a bucket: change.
	hot := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 100000},
	}}
	if !u.Fold(hot) {
		t.Error("bucket jump not reported as change")
	}
	// New pages: change.
	wider := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 50, Pages: 2}, NrAccesses: 5},
	}}
	if !u.Fold(wider) {
		t.Error("new pages not reported as change")
	}
}

func TestUnifiedMaxMergeSemantics(t *testing.T) {
	u := NewUnified()
	u.Fold(Pattern{Records: []RegionRecord{{Region: guest.Region{Start: 0, Pages: 1}, NrAccesses: 100}}})
	u.Fold(Pattern{Records: []RegionRecord{{Region: guest.Region{Start: 0, Pages: 1}, NrAccesses: 40}}})
	if got := u.perPage.Count(0); got != 100 {
		t.Errorf("max-merge lost the max: %d", got)
	}
	if u.perPage.Len() != 1 {
		t.Errorf("pages = %d", u.perPage.Len())
	}
}

func TestUnifiedRegionsMergeDelta(t *testing.T) {
	u := NewUnified()
	u.Fold(Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 2}, NrAccesses: 1000},
		{Region: guest.Region{Start: 2, Pages: 2}, NrAccesses: 1050}, // within 100
		{Region: guest.Region{Start: 4, Pages: 2}, NrAccesses: 5000}, // far
	}})
	regs := u.Regions(100)
	if len(regs) != 2 {
		t.Fatalf("Regions(100) = %v, want 2 regions", regs)
	}
	if regs[0].Region.Pages != 4 {
		t.Errorf("merged region pages = %d, want 4", regs[0].Region.Pages)
	}
	// With delta 10000 everything merges.
	if got := u.Regions(10000); len(got) != 1 {
		t.Errorf("Regions(10000) = %v, want single region", got)
	}
	// With delta 1 nothing merges beyond equal counts.
	if got := u.Regions(1); len(got) != 3 {
		t.Errorf("Regions(1) = %v, want 3 regions", got)
	}
}

func TestUnifiedRegionsEmpty(t *testing.T) {
	if got := NewUnified().Regions(100); got != nil {
		t.Errorf("empty unified Regions = %v", got)
	}
}

// Property: Profile never loses coverage — every truth page falls inside
// some record — and never reports fewer than 1 access for a touched granule.
func TestProfileCoverageProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(pages []uint8, seed int64) bool {
		truth := access.NewHistogram()
		for _, pg := range pages {
			addPage(truth, guest.PageID(pg), int64(pg)+1)
		}
		p := c.Profile(truth, 512, seed)
		for _, pc := range truth.Sorted() {
			found := false
			for _, rec := range p.Records {
				if pc.Page >= rec.Region.Start && pc.Page < rec.Region.End() {
					found = true
					if rec.NrAccesses < 1 {
						return false
					}
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: folding patterns in any order yields the same unified histogram
// (max-merge is commutative).
func TestUnifiedFoldOrderInsensitiveProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		var pats []Pattern
		for i, n := range counts {
			pats = append(pats, Pattern{Records: []RegionRecord{{
				Region:     guest.Region{Start: guest.PageID(i % 8), Pages: 1},
				NrAccesses: int64(n),
			}}})
		}
		a, b := NewUnified(), NewUnified()
		for _, p := range pats {
			a.Fold(p)
		}
		for i := len(pats) - 1; i >= 0; i-- {
			b.Fold(pats[i])
		}
		return slices.Equal(a.perPage.Runs(), b.perPage.Runs())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

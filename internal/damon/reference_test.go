package damon

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/lazyrand"
	"toss/internal/workload"
)

// This file keeps the per-page implementations that Profile and Unified
// replaced — one slot per guest page, three passes per profile — as the
// references the run-based code must match record for record. The
// references use their own copies of the float formulas for sampling,
// similarity and merging (refSample, refSimilar, refWeightedMerge), so a
// change to the production arithmetic is checked, not echoed.

// refSample perturbs a true count by the configured noise amplitude, one
// math/rand Float64 per touched granule.
func refSample(c Config, trueCount int64, rng *rand.Rand) int64 {
	if trueCount <= 0 || c.NoiseAmplitude == 0 {
		return trueCount
	}
	noise := 1 + (rng.Float64()*2-1)*c.NoiseAmplitude
	v := int64(math.Round(float64(trueCount) * noise))
	if v < 1 {
		v = 1
	}
	return v
}

// refSimilar reports whether two counts are within threshold of each other,
// relative to the larger.
func refSimilar(a, b int64, threshold float64) bool {
	if a == b {
		return true
	}
	hi := math.Max(float64(a), float64(b))
	if hi == 0 {
		return true
	}
	return math.Abs(float64(a)-float64(b))/hi <= threshold
}

// refWeightedMerge combines two adjacent records, averaging counts by pages.
func refWeightedMerge(a, b RegionRecord) RegionRecord {
	pages := a.Region.Pages + b.Region.Pages
	count := (a.NrAccesses*a.Region.Pages + b.NrAccesses*b.Region.Pages) / pages
	return RegionRecord{
		Region:     guest.Region{Start: a.Region.Start, Pages: pages},
		NrAccesses: count,
	}
}

// refAdd is aggregate.add as it was before the band loop: every granule
// draws its noise, rounds through math.Round outside the rounding identity,
// and is tested for similarity and merged on its own.
func (a *aggregate) refAdd(from, stop, pages guest.PageID, mean int64, amp float64, noise *lazyrand.Stream) guest.PageID {
	start, end, count := a.start, a.end, a.count
	p := from
	for ; p+pages <= stop; p += pages {
		c := mean
		if c > 0 && amp != 0 {
			x := float64(c) * (1 + (noise.Float64()*2-1)*amp)
			if x >= 0.5 && x < 1<<52 {
				c = int64(x + 0.5)
			} else {
				c = max(int64(math.Round(x)), 1)
			}
		}
		if p == end && similar(count, c) {
			end = p + pages
			count = mergedCount(count, int64(end-start), c, int64(pages))
			continue
		}
		if end >= 0 {
			a.records = append(a.records, RegionRecord{Region: guest.Region{Start: start, Pages: int64(end - start)}, NrAccesses: count})
		}
		start, end, count = p, p+pages, c
	}
	a.start, a.end, a.count = start, end, count
	return p
}

// refProfile is Profile as separate granulate, sample and merge passes over
// per-page counts. Pages outside [0, totalPages) are dropped first: the
// per-page granulate never returned on them.
func refProfile(c Config, truth []access.PageCount, totalPages int64, seed int64) Pattern {
	rng := rand.New(rand.NewSource(seed))
	var counts []access.PageCount
	for _, pc := range truth {
		if pc.Page >= 0 && int64(pc.Page) < totalPages {
			counts = append(counts, pc)
		}
	}
	if len(counts) == 0 {
		return Pattern{}
	}
	granules := refGranulate(c, counts, totalPages)
	for i := range granules {
		granules[i].NrAccesses = refSample(c, granules[i].NrAccesses, rng)
	}
	records := refMergeSimilar(granules, 0.2)
	records = refCapRegions(records, c.MaxRegions)
	return Pattern{Records: records}
}

func refGranulate(c Config, counts []access.PageCount, totalPages int64) []RegionRecord {
	var out []RegionRecord
	i := 0
	for i < len(counts) {
		start := counts[i].Page
		end := start + guest.PageID(c.MinRegionPages)
		if int64(end) > totalPages {
			end = guest.PageID(totalPages)
		}
		var sum int64
		j := i
		for j < len(counts) && counts[j].Page < end {
			sum += counts[j].Count
			j++
		}
		pages := int64(end - start)
		if pages < 1 {
			pages = 1
		}
		avg := sum / pages
		if avg < 1 && sum > 0 {
			avg = 1
		}
		out = append(out, RegionRecord{
			Region:     guest.Region{Start: start, Pages: pages},
			NrAccesses: avg,
		})
		i = j
	}
	return out
}

func refMergeSimilar(in []RegionRecord, threshold float64) []RegionRecord {
	if len(in) == 0 {
		return nil
	}
	out := []RegionRecord{in[0]}
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if last.Region.Adjacent(r.Region) && refSimilar(last.NrAccesses, r.NrAccesses, threshold) {
			*last = refWeightedMerge(*last, r)
			continue
		}
		out = append(out, r)
	}
	return out
}

// refCapRegions is the rescanning merge loop capRegions replaced: every
// merge scans all records for the closest adjacent pair and shifts the
// slice.
func refCapRegions(in []RegionRecord, max int) []RegionRecord {
	out := append([]RegionRecord(nil), in...)
	for len(out) > max {
		best, bestDiff := -1, int64(math.MaxInt64)
		for i := 0; i+1 < len(out); i++ {
			if !out[i].Region.Adjacent(out[i+1].Region) {
				continue
			}
			d := out[i].NrAccesses - out[i+1].NrAccesses
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				best, bestDiff = i, d
			}
		}
		if best < 0 {
			break
		}
		out[best] = refWeightedMerge(out[best], out[best+1])
		out = append(out[:best+1], out[best+2:]...)
	}
	return out
}

// densePages is a per-page count store indexed by page id.
type densePages []int64

func (d *densePages) add(p guest.PageID, n int64) {
	if int(p) >= len(*d) {
		*d = append(*d, make([]int64, int(p)+1-len(*d))...)
	}
	(*d)[p] += n
}

func (d densePages) count(p guest.PageID) int64 {
	if p < 0 || int(p) >= len(d) {
		return 0
	}
	return d[p]
}

func (d densePages) sorted() []access.PageCount {
	var out []access.PageCount
	for p, c := range d {
		if c != 0 {
			out = append(out, access.PageCount{Page: guest.PageID(p), Count: c})
		}
	}
	return out
}

// refUnified is Unified with a per-page store: Fold max-merges page by page
// and Regions walks every page.
type refUnified struct{ pages densePages }

func (u *refUnified) fold(p Pattern) (changed bool) {
	for _, rec := range p.Records {
		for pg := rec.Region.Start; pg < rec.Region.End(); pg++ {
			old := u.pages.count(pg)
			if rec.NrAccesses > old {
				if Bucket(rec.NrAccesses) != Bucket(old) {
					changed = true
				}
				u.pages.add(pg, rec.NrAccesses-old)
			}
		}
	}
	return changed
}

func (u *refUnified) regions(mergeDelta int64) []RegionRecord {
	counts := u.pages.sorted()
	if len(counts) == 0 {
		return nil
	}
	var out []RegionRecord
	cur := RegionRecord{Region: guest.Region{Start: counts[0].Page, Pages: 1}, NrAccesses: counts[0].Count}
	for _, pc := range counts[1:] {
		adjacent := pc.Page == cur.Region.End()
		delta := pc.Count - cur.NrAccesses
		if delta < 0 {
			delta = -delta
		}
		if adjacent && delta < mergeDelta {
			total := cur.NrAccesses*cur.Region.Pages + pc.Count
			cur.Region.Pages++
			cur.NrAccesses = total / cur.Region.Pages
			continue
		}
		out = append(out, cur)
		cur = RegionRecord{Region: guest.Region{Start: pc.Page, Pages: 1}, NrAccesses: pc.Count}
	}
	out = append(out, cur)
	sort.Slice(out, func(i, j int) bool { return out[i].Region.Start < out[j].Region.Start })
	return out
}

func samePattern(t *testing.T, what string, got, want Pattern) {
	t.Helper()
	if !slices.Equal(got.Records, want.Records) {
		t.Fatalf("%s:\n got  %v\n want %v", what, got.Records, want.Records)
	}
}

func sameRecords(t *testing.T, what string, got, want []RegionRecord) {
	t.Helper()
	samePattern(t, what, Pattern{Records: got}, Pattern{Records: want})
}

// checkFoldAndRegions folds p into both unified files and compares the
// change flag, the per-page counts and the merged regions.
func checkFoldAndRegions(t *testing.T, u *Unified, ref *refUnified, p Pattern, deltas ...int64) {
	t.Helper()
	if got, want := u.Fold(p), ref.fold(p); got != want {
		t.Fatalf("Fold changed = %t, reference %t", got, want)
	}
	if got, want := u.perPage.Sorted(), ref.pages.sorted(); !slices.Equal(got, want) {
		t.Fatalf("unified counts differ from the reference: %d vs %d pages", len(got), len(want))
	}
	for _, d := range deltas {
		sameRecords(t, "Regions", u.Regions(d), ref.regions(d))
	}
}

// FuzzProfile checks Profile, then Fold and Regions, against the per-page
// references on arbitrary truths. The input is a config byte, a seed byte,
// a guest-size byte, then five-byte adds: start, length, signed count, a
// multiplier byte and a high byte. Negative and zero-crossing counts are
// included, since Add accepts them, and pages past the guest, which Profile
// must ignore. The high byte's low two bits extend the start; its upper six
// bits, when not zero, lift the count by 2^(30..62), downwards when the
// multiplier byte's top bit is set. Lifted counts reach past every guard of
// Profile's integer paths: 2³¹ (merge), 2⁵⁰ (similarity), 2⁵² (rounding)
// and the count·granule overflow. The 0.99 noise amplitude sends small
// samples below 0.5, where math.Round runs.
func FuzzProfile(f *testing.F) {
	f.Add([]byte{0x3b, 1, 16, 10, 1, 5, 0, 0, 100, 1, 5, 0, 0})     // pages 10 and 100 of a 64-page guest
	f.Add([]byte{0x7b, 7, 255, 0, 64, 100, 0, 0, 8, 8, 0x9c, 0, 0}) // a hot run with a zeroed dip
	f.Add([]byte{0x13, 3, 200, 4, 4, 1, 0, 0, 8, 4, 127, 0, 0, 12, 4, 1, 0, 0, 16, 4, 127, 0, 0})
	f.Add([]byte{0x83, 9, 128, 0, 40, 0xfe, 0, 0, 2, 30, 3, 0, 0}) // negative counts
	// One seed per guard. Count·granule overflows: 2⁶¹+5 in 8-page granules,
	// and −2⁶²+5 in 4-page granules.
	f.Add([]byte{0x7f, 2, 64, 0, 40, 5, 0, 32 << 2, 0, 40, 5, 0x80, 33 << 2})
	f.Add([]byte{0x7b, 2, 64, 0, 40, 5, 0x80, 33 << 2})
	// Rounding: samples of 2⁵²−3 under 30% noise straddle 2⁵², and seven
	// granules stay under the region cap, so each sample is a record.
	f.Add([]byte{0xbb, 4, 64, 0, 28, 0xfd, 0, 23 << 2})
	// Similarity: 2⁵⁰−2 beside 2⁵⁰+2, noise off.
	f.Add([]byte{0x3b, 1, 64, 0, 8, 0xfe, 0, 21 << 2, 8, 8, 2, 0, 21 << 2})
	// Merge: 2³¹−1 beside 2³¹+1, noise off; and 300 pages of 2⁵⁵, whose
	// merged total overflows the division.
	f.Add([]byte{0x3b, 1, 64, 0, 8, 0xff, 0, 2 << 2, 8, 8, 1, 0, 2 << 2})
	f.Add([]byte{0x3b, 1, 100, 0, 60, 0, 0, 26 << 2, 60, 60, 0, 0, 26 << 2,
		120, 60, 0, 0, 26 << 2, 180, 60, 0, 0, 26 << 2, 240, 60, 0, 0, 26 << 2})
	// math.Round: count 1 under 0.99 noise samples below 0.5.
	f.Add([]byte{0xfb, 5, 64, 0, 60, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c := DefaultConfig()
		c.MinRegionPages = int64(data[0]&7) + 1
		c.MaxRegions = int(data[0]>>3&7) + 1
		c.NoiseAmplitude = []float64{0, 0.05, 0.3, 0.99}[data[0]>>6]
		seed := int64(data[1])
		totalPages := int64(data[2]) * 4
		truth := access.NewHistogram()
		for rest := data[3:]; len(rest) >= 5; rest = rest[5:] {
			start := guest.PageID(rest[0]) | guest.PageID(rest[4]&3)<<8
			count := int64(int8(rest[2])) * int64(rest[3]%4+1)
			if lift := rest[4] >> 2; lift != 0 {
				e := 30 + (lift-1)%33
				if rest[3]&0x80 != 0 {
					count -= 1 << e
				} else {
					count += 1 << e
				}
			}
			addRegion(truth, guest.Region{Start: start, Pages: int64(rest[1] % 64)}, count)
		}
		got := c.Profile(truth, totalPages, seed)
		samePattern(t, "Profile", got, refProfile(c, truth.Sorted(), totalPages, seed))

		u, ref := NewUnified(), &refUnified{}
		checkFoldAndRegions(t, u, ref, got, 1, 100)
		again := c.Profile(truth, totalPages, seed+1)
		checkFoldAndRegions(t, u, ref, again, 0, 1, 3, 100)
	})
}

// bandRun is one aggregate.add call of a band test: granules of one mean,
// starting gap pages after the previous call's last granule, with slack
// pages after the last whole granule that no granule covers.
type bandRun struct {
	mean       int64
	granules   int64
	gap, slack guest.PageID
}

// checkBand feeds runs to add and to refAdd, each aggregate with its own
// noise stream of one seed, and requires the same return values, the same
// records and the streams in step afterwards.
func checkBand(t *testing.T, amp float64, granule guest.PageID, seed int64, runs []bandRun) {
	t.Helper()
	got, want := aggregate{end: -1}, aggregate{end: -1}
	var gotNoise, wantNoise lazyrand.Stream
	gotNoise.Seed(seed)
	wantNoise.Seed(seed)
	what := func() string {
		return fmt.Sprintf("amplitude %v, granule %d, seed %d, runs %v", amp, granule, seed, runs)
	}
	p := guest.PageID(0)
	for _, r := range runs {
		p += r.gap
		stop := p + guest.PageID(r.granules)*granule + r.slack
		if g, w := got.add(p, stop, granule, r.mean, amp, &gotNoise), want.refAdd(p, stop, granule, r.mean, amp, &wantNoise); g != w {
			t.Fatalf("%s: add returned %d, refAdd %d", what(), g, w)
		}
		p = stop
	}
	sameRecords(t, what(), got.close(), want.close())
	if g, w := gotNoise.Float64(), wantNoise.Float64(); g != w {
		t.Fatalf("%s: noise streams out of step: next draws %v and %v", what(), g, w)
	}
}

// bandAmplitudes are noise amplitudes on both sides of the band guard
// 5·(hi−lo) <= lo, which a wide band passes up to an amplitude of 1/11,
// plus no noise, where every band is the mean alone.
var bandAmplitudes = []float64{0, 0.05, 0.09, 0.1, 0.3}

// bandMeans are counts at the band's edges: up to 9 a 5% band holds one
// value and from 10 two; 20 and 30 have bands of three and four values,
// which the width guard lets into the band loop at a region's third and
// fourth granule; 2045222521 is the largest mean whose 5% band stays below
// 2³¹; and the lifts approach and pass 2³¹ (the merge identity's bound) and
// 2⁵² (the rounding identity's).
var bandMeans = []int64{1, 2, 9, 10, 11, 20, 30, 100, 1000, 1 << 20,
	2045222521, 1<<31 - 1, 1 << 31, 1 << 50, 1<<52 - 1, 1 << 52}

// TestBandMatchesReference holds add's band loop to refAdd over every band
// amplitude and mean, granules of 1, 4 and 2²⁰ pages and 64 noise seeds:
// short runs, where the width guard decides, a run after a gap, a long run
// (4,100 granules of 2²⁰ pages pass 2³² pages, where a merged count of
// 2³¹−1 overflows the division), and a run opening inside the region of a
// neighbour whose count is similar but outside the band.
func TestBandMatchesReference(t *testing.T) {
	for _, amp := range bandAmplitudes {
		for _, granule := range []guest.PageID{1, 4, 1 << 20} {
			for _, m := range bandMeans {
				for seed := int64(0); seed < 64; seed++ {
					checkBand(t, amp, granule, seed, []bandRun{{mean: m, granules: 2}, {mean: m, granules: 3, gap: 1},
						{mean: m, granules: 5, gap: 1, slack: granule / 2}})
				}
				for seed := int64(0); seed < 3; seed++ {
					checkBand(t, amp, granule, seed, []bandRun{{mean: m, granules: 4100}})
					checkBand(t, amp, granule, seed, []bandRun{{mean: m + m/8 + 1, granules: 40}, {mean: m, granules: 2000}})
				}
			}
		}
	}
}

// FuzzProfileBand holds add to refAdd on long runs of one count, which
// FuzzProfile's runs of at most 63 pages never reach for counts above a
// few hundred. The input is a config byte, whose low three bits pick a
// bandAmplitudes entry and whose top five the granule size 2^(0..20), a
// seed byte, then four-byte runs: a mean byte, a signed offset added to
// the bandMeans entry the mean byte's low four bits pick, and a 13-bit
// granule count, up to 8,191, in the last two. The mean byte's top bit puts
// a one-page gap before the run, and its bits 4–6 add that many pages of
// slack after it.
func FuzzProfileBand(f *testing.F) {
	// One entry per band guard, each failing when its guard is dropped or
	// loosened. The 2³¹ limit: no noise at 2³¹−1, where the merged region
	// passes 2³² pages and the division overflows.
	f.Add([]byte{20 << 3, 1, 11, 0, 0x04, 0x10})
	// The width guard: at 5% noise, four two-granule runs of mean 20 whose
	// first granule samples 19 and second 21 (seed 7).
	f.Add([]byte{1 | 2<<3, 7, 5, 0, 2, 0, 0x85, 0, 2, 0, 0x85, 0, 2, 0, 0x85, 0, 2, 0})
	// The similarity guard: at 30% noise, mean 2 samples 1, 2 and 3, no
	// two of which are similar.
	f.Add([]byte{4 | 2<<3, 8, 1, 0, 50, 0})
	// 10% and 30% noise at 100 and 1000: no band, every granule takes the
	// loop.
	f.Add([]byte{3 | 2<<3, 4, 7, 0, 0xd0, 0x07})
	f.Add([]byte{4, 5, 8, 0, 0xd0, 0x07})
	// 9% noise at 1000, opening inside a similar neighbour's region.
	f.Add([]byte{2 | 2<<3, 6, 8, 126, 40, 0, 8, 0, 0xb8, 0x0b})
	// Singletons at 9 and two-value bands at 10, then counts past 2⁵².
	f.Add([]byte{1 | 4<<3, 7, 2, 0, 0xe8, 0x03, 3, 0, 0xe8, 0x03, 0x1f, 0xfd, 0x10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		amp := bandAmplitudes[int(data[0]&7)%len(bandAmplitudes)]
		granule := guest.PageID(1) << (data[0] >> 3 % 21)
		var runs []bandRun
		for rest := data[2:]; len(rest) >= 4 && len(runs) < 16; rest = rest[4:] {
			runs = append(runs, bandRun{
				mean:     bandMeans[rest[0]&15] + int64(int8(rest[1])),
				granules: int64(rest[2]) | int64(rest[3]&0x1f)<<8,
				gap:      guest.PageID(rest[0] >> 7),
				slack:    guest.PageID(rest[0] >> 4 & 7),
			})
		}
		checkBand(t, amp, granule, int64(data[1]), runs)
	})
}

// TestSampleMatchesMathRound compares sample with the math.Round formula it
// stands in for, max(int64(math.Round(x)), 1), on draws at both ends and
// inside [0, lazyrand.MaxFloat64], for counts and amplitudes (beyond the
// [0, 1) Validate allows too) that put x below 0.5, at the ends of the
// rounding identity's interval, past ±2⁵², at ±Inf and at NaN.
func TestSampleMatchesMathRound(t *testing.T) {
	counts := []int64{1, 2, 9, 10, 1<<31 - 1, 1<<52 - 3, 1 << 52, 1 << 53, 1<<62 + 1, math.MaxInt64}
	amps := []float64{0, 0.05, 0.3, 0.99, 1, 3, -3, math.Inf(1), math.NaN()}
	for _, c := range counts {
		for _, amp := range amps {
			for _, f := range []float64{0, 0.1, 0.25, 0.5, 0.75, lazyrand.MaxFloat64} {
				x := float64(c) * (1 + (f*2-1)*amp)
				if got, want := sample(c, f, amp), max(int64(math.Round(x)), 1); got != want {
					t.Errorf("sample(%d, %v, %v) = %d, math.Round formula %d (x = %v)", c, f, amp, got, want, x)
				}
			}
		}
	}
}

// TestSimilarMatchesFloatTest compares similar with the float reference on
// pairs whose relative difference is 1/5 give or take one, at every
// magnitude: below 2⁵⁰ the integer test must agree, and from 2⁵⁴ on it
// would not (the float conversions round), so a guard widened past where
// the identity holds fails here.
func TestSimilarMatchesFloatTest(t *testing.T) {
	var pairs [][2]int64
	for e := 3; e <= 62; e++ {
		k := int64(1) << (e - 3)
		for _, dk := range []int64{-1, 0, 1, 2, 3} {
			a := 5 * (k + dk)
			for _, db := range []int64{-1, 0, 1} {
				b := 4*(k+dk) + db
				pairs = append(pairs, [2]int64{a, b}, [2]int64{b, a}, [2]int64{-a, -b}, [2]int64{a, -b})
			}
		}
	}
	pairs = append(pairs, [2]int64{0, 0}, [2]int64{0, 5}, [2]int64{0, -5}, [2]int64{1 << 50, 1<<50 - 1},
		[2]int64{math.MaxInt64, math.MaxInt64 - 1}, [2]int64{math.MinInt64, math.MaxInt64})
	for _, p := range pairs {
		if got, want := similar(p[0], p[1]), refSimilar(p[0], p[1], 0.2); got != want {
			t.Errorf("similar(%d, %d) = %t, float test %t", p[0], p[1], got, want)
		}
	}
}

// TestMergedCountMatchesDivision compares mergedCount with the division it
// stands in for around each guard: counts at 2³¹, merged sizes at 2³¹ and
// beyond (where a·P overflows), and differences on both sides of ±P.
func TestMergedCountMatchesDivision(t *testing.T) {
	counts := []int64{-3, 0, 1, 2, 1000, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, math.MaxInt64}
	sizes := []int64{1, 4, 5, 1000, 1<<31 - 1, 1 << 31, 1 << 33, 1 << 40}
	for _, a := range counts {
		for _, pages := range sizes {
			for _, g := range []int64{1, 4, pages - 1, pages} {
				if g < 1 || g > pages {
					continue
				}
				for _, b := range append([]int64{a - 1, a + 1}, counts...) {
					want := refWeightedMerge(
						RegionRecord{Region: guest.Region{Pages: pages - g}, NrAccesses: a},
						RegionRecord{Region: guest.Region{Start: guest.PageID(pages - g), Pages: g}, NrAccesses: b}).NrAccesses
					if got := mergedCount(a, pages, b, g); got != want {
						t.Errorf("mergedCount(%d, %d, %d, %d) = %d, division %d", a, pages, b, g, got, want)
					}
				}
			}
		}
	}
}

// edgeSeeds are noise seeds at math/rand's seeding edges: zero, negative
// seeds, 2³¹−1 and its multiples (which math/rand seeds as it seeds zero),
// and the int64 extremes.
var edgeSeeds = []int64{
	0, -1, -4242,
	1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1), 3 * (1<<31 - 1),
	math.MinInt64, math.MaxInt64,
}

// TestProfileMatchesReferenceOnCatalog runs every catalog function at every
// input level and trace seeds 0, 1 and 4242 through Profile, Fold and
// Regions and the per-page references, and requires identical records and
// change flags throughout. Each truth is also profiled under every edge
// noise seed.
func TestProfileMatchesReferenceOnCatalog(t *testing.T) {
	c := DefaultConfig()
	for _, spec := range workload.Registry() {
		layout, err := spec.Layout()
		if err != nil {
			t.Fatal(err)
		}
		u, ref := NewUnified(), &refUnified{}
		for _, lv := range workload.Levels {
			for _, seed := range []int64{0, 1, 4242} {
				tr, err := spec.Trace(lv, seed)
				if err != nil {
					t.Fatal(err)
				}
				truth := tr.Counts()
				sorted := truth.Sorted()
				got := c.Profile(truth, layout.TotalPages, seed)
				samePattern(t, spec.Name, got, refProfile(c, sorted, layout.TotalPages, seed))
				checkFoldAndRegions(t, u, ref, got)
				for _, noise := range edgeSeeds {
					samePattern(t, fmt.Sprintf("%s noise seed %d", spec.Name, noise),
						c.Profile(truth, layout.TotalPages, noise), refProfile(c, sorted, layout.TotalPages, noise))
				}
			}
		}
		sameRecords(t, spec.Name+" Regions", u.Regions(100), ref.regions(100))
	}
}

// TestProfileIgnoresPagesPastGuest is the regression test for a truth with
// a page at or past totalPages: the monitored space is [0, totalPages), so
// page 100 of a 64-page guest is ignored instead of looping forever.
func TestProfileIgnoresPagesPastGuest(t *testing.T) {
	c := DefaultConfig()
	c.NoiseAmplitude = 0
	truth := access.NewHistogram()
	addPage(truth, 10, 5)
	addPage(truth, 100, 5)
	p := c.Profile(truth, 64, 1)
	want := []RegionRecord{{Region: guest.Region{Start: 10, Pages: 4}, NrAccesses: 1}}
	sameRecords(t, "Profile", p.Records, want)
	if got := c.Profile(truth, 0, 1); len(got.Records) != 0 {
		t.Fatalf("empty guest produced %v", got.Records)
	}
}

// randomRecords returns n records in address order with counts drawn from
// a small range, so equal differences (ties) are common, and a gap before
// about one record in five, so some neighbours are not adjacent.
func randomRecords(rng *rand.Rand, n int) []RegionRecord {
	recs := make([]RegionRecord, n)
	next := guest.PageID(0)
	for i := range recs {
		if rng.Intn(5) == 0 {
			next += guest.PageID(1 + rng.Intn(3))
		}
		pages := int64(1 + rng.Intn(6))
		recs[i] = RegionRecord{Region: guest.Region{Start: next, Pages: pages}, NrAccesses: int64(rng.Intn(40))}
		next += guest.PageID(pages)
	}
	return recs
}

// TestCapRegionsMatchesRescanLoop checks the heap-driven capRegions against
// the rescanning loop on random record lists and caps.
func TestCapRegionsMatchesRescanLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		recs := randomRecords(rng, rng.Intn(80))
		max := 1 + rng.Intn(len(recs)+2)
		want := refCapRegions(recs, max)
		sameRecords(t, "capRegions", capRegions(slices.Clone(recs), max), want)
	}
	// Differences at the int64 extremes: a MaxInt64 difference never merges.
	extreme := []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 1}, NrAccesses: math.MaxInt64},
		{Region: guest.Region{Start: 1, Pages: 1}, NrAccesses: 0},
		{Region: guest.Region{Start: 2, Pages: 1}, NrAccesses: math.MinInt64 + 1},
	}
	sameRecords(t, "capRegions", capRegions(slices.Clone(extreme), 1), refCapRegions(extreme, 1))
}

// alternatingTruth is granules of 4 pages whose counts alternate between 1
// and 1000, so no two neighbours are similar and every granule reaches
// capRegions as its own record.
func alternatingTruth(granules int) *access.Histogram {
	h := access.NewHistogram()
	for g := 0; g < granules; g++ {
		addRegion(h, guest.Region{Start: guest.PageID(4 * g), Pages: 4}, int64(1+999*(g%2)))
	}
	return h
}

// BenchmarkProfileAlternating65536 profiles a 1 GiB guest (pagerank's size)
// of alternating granules: 65,536 records capped to MaxRegions.
func BenchmarkProfileAlternating65536(b *testing.B) {
	c := DefaultConfig()
	truth := alternatingTruth(65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := c.Profile(truth, 4*65536, int64(i)); len(p.Records) > c.MaxRegions {
			b.Fatalf("%d records over the cap", len(p.Records))
		}
	}
}

// profiled keeps the benchmarks' results live.
var profiled int

// BenchmarkProfileCatalog profiles every catalog function's trace at every
// input level (trace seed 1): the granule loop Step II runs per profiling
// invocation, with one noise draw per touched granule. One op is the 40
// profiles.
func BenchmarkProfileCatalog(b *testing.B) {
	c := DefaultConfig()
	type input struct {
		truth *access.Histogram
		pages int64
	}
	var inputs []input
	for _, spec := range workload.Registry() {
		layout, err := spec.Layout()
		if err != nil {
			b.Fatal(err)
		}
		for _, lv := range workload.Levels {
			tr, err := spec.Trace(lv, 1)
			if err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, input{tr.Counts(), layout.TotalPages})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			profiled += len(c.Profile(in.truth, in.pages, 1).Records)
		}
	}
}

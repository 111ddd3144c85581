// Package damon simulates Linux's Data Access MONitor, the memory profiler
// TOSS uses during its profiling phase (§V-B).
//
// DAMON's key property — the reason the paper picks it over userfaultfd,
// mincore, and PEBS — is that it reports *graded* access counts per adaptive
// region at low overhead, instead of a binary touched/untouched bit. The
// simulator reproduces that interface: given the ground-truth per-page access
// histogram of an invocation, it produces a region-based access pattern with
//
//   - a minimum region size (the paper uses 16 KiB = 4 pages),
//   - adaptive merging of adjacent regions with similar access counts,
//   - a cap on the number of regions (DAMON's scalability mechanism), and
//   - sampling noise derived from the 10 µs sampling interval, seeded so
//     experiments are reproducible.
//
// Profiling is not free: the paper measures ~3 % average execution overhead,
// which callers apply via Config.OverheadFactor while profiling is enabled.
package damon

import (
	"container/heap"
	"fmt"
	"math"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/lazyrand"
	"toss/internal/simtime"
	"toss/internal/telemetry"
)

// Config holds the monitor's tuning knobs.
type Config struct {
	// SamplingInterval is the time between access samples. The paper uses
	// 10 µs to capture even very short-lived functions.
	SamplingInterval simtime.Duration
	// MinRegionPages is the smallest region DAMON tracks (16 KiB default).
	MinRegionPages int64
	// MaxRegions caps the region count; beyond it, the most similar
	// adjacent regions are merged.
	MaxRegions int
	// NoiseAmplitude is the relative sampling error applied to observed
	// access counts (0.05 = ±5 %).
	NoiseAmplitude float64
	// OverheadFraction is the execution-time overhead profiling imposes
	// (0.03 = 3 %, the paper's measured average).
	OverheadFraction float64
}

// DefaultConfig returns the paper's prototype settings.
func DefaultConfig() Config {
	return Config{
		SamplingInterval: 10 * simtime.Microsecond,
		MinRegionPages:   4, // 16 KiB
		MaxRegions:       1000,
		NoiseAmplitude:   0.05,
		OverheadFraction: 0.03,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SamplingInterval <= 0 {
		return fmt.Errorf("damon: non-positive sampling interval")
	}
	if c.MinRegionPages < 1 {
		return fmt.Errorf("damon: MinRegionPages %d < 1", c.MinRegionPages)
	}
	if c.MaxRegions < 1 {
		return fmt.Errorf("damon: MaxRegions %d < 1", c.MaxRegions)
	}
	if c.NoiseAmplitude < 0 || c.NoiseAmplitude >= 1 {
		return fmt.Errorf("damon: NoiseAmplitude %v out of [0,1)", c.NoiseAmplitude)
	}
	if c.OverheadFraction < 0 {
		return fmt.Errorf("damon: negative overhead fraction")
	}
	return nil
}

// OverheadFactor returns the multiplier applied to execution time while the
// monitor is attached.
func (c Config) OverheadFactor() float64 { return 1 + c.OverheadFraction }

// RegionRecord is one monitored region and its observed per-page access
// count (DAMON's nr_accesses, normalized per page so regions of different
// sizes compare directly).
type RegionRecord struct {
	Region guest.Region
	// NrAccesses is the observed number of line touches per page in the
	// region over the monitored invocation.
	NrAccesses int64
}

// Pattern is the access-pattern file one monitored invocation produces.
type Pattern struct {
	Records []RegionRecord
}

// CountAt returns the pattern's estimated per-page access count for page pg,
// or 0 when no record covers it. Records are produced sorted by start
// address (Profile and Unified.Regions both guarantee it), so the lookup is
// a binary search.
func (p Pattern) CountAt(pg guest.PageID) int64 {
	lo, hi := 0, len(p.Records)
	for lo < hi {
		mid := (lo + hi) / 2
		r := p.Records[mid].Region
		switch {
		case pg < r.Start:
			hi = mid
		case pg >= r.End():
			lo = mid + 1
		default:
			return p.Records[mid].NrAccesses
		}
	}
	return 0
}

// Profile runs the monitor over one invocation's ground-truth histogram and
// returns the observed access pattern. The monitored address space is
// [0, totalPages): touched pages outside it are ignored. seed drives the
// deterministic sampling noise, whose stream is math/rand's for that seed.
//
// One pass over the truth's runs does DAMON's three steps per granule:
//
//   - granulate: chunk the touched address space into minimum-size
//     granules, averaging counts within each (DAMON cannot see below its
//     minimum region size). Untouched pages are not reported (DAMON only
//     tracks populated VMAs), but a granule starts at a touched page and
//     absorbs up to MinRegionPages-1 untouched neighbours, blurring the
//     truth exactly like a real region-based monitor;
//   - sample: apply sampling noise, one Float64 draw per touched granule in
//     address order: the count c becomes round(c·(1+(2f−1)·NoiseAmplitude)),
//     at least 1;
//   - aggregate: merge the granule into the previous region when adjacent
//     with a similar access count (relative difference at most
//     similarityThreshold of the larger), the merged count being the
//     truncated page-weighted mean.
//
// Then MaxRegions is enforced by merging the most similar adjacent pairs.
//
// Profile walks the granules run by run and hands each run's to
// aggregate.add, whose loop keeps the open region in locals and draws the
// noise from a lazyrand.Stream on Profile's stack. Each step runs in
// integers where one of five identities makes that exact, and falls back
// to the float or division formula outside the identity's guard:
//
//   - mean: a granule wholly inside one run whose count c satisfies
//     |c|·MinRegionPages <= MaxInt64 averages to exactly c;
//   - rounding: for x in [0.5, 2⁵²), int64(x+0.5) == int64(math.Round(x)).
//     There x+0.5 is exact, or it crosses a power of two 2ᵏ and lands in
//     [2ᵏ, 2ᵏ+0.5], so truncating it floors x+0.5 either way (sample
//     needs no math.Round outside it either);
//   - similarity: for 0 < a, b < 2⁵⁰, the float64 test
//     |a−b|/max(a,b) <= 0.2 holds exactly when 5·|a−b| <= max(a,b). The
//     conversions and the difference are exact and rounding is monotone,
//     so a ratio of at most 1/5 passes; one above 1/5 exceeds it by at
//     least 1/(5·max) > 2⁻⁵³, more than float64(0.2)'s excess over 1/5
//     plus the quotient's rounding;
//   - merge: for counts a (over the open region) and b (over the granule's
//     g pages) in [1, 2³¹) and a merged size P < 2³¹, let d = (b−a)·g;
//     the truncated mean (a·(P−g) + b·g)/P = a + ⌊d/P⌋ is a when
//     0 <= d < P and a−1 when −P <= d < 0 (mergedCount);
//   - band: for granules of g pages and one mean m in [1, 2³¹), and an
//     amplitude in [0, 1), x = m·(1+(2f−1)·amp) is below 2³² and does not
//     fall as the draw f rises (each float operation rounds monotonically),
//     so neither does the sampled count. Every sample therefore lies in
//     the band [lo, hi], the samples at f = 0 and at f = 1−2⁻⁵³, the least
//     and greatest values lazyrand.Stream.Float64 returns (with no noise,
//     lo = hi = m). Let 5·(hi−lo) <= lo and hi < 2³¹; then any two counts
//     in the band are similar. Let the open region be adjacent with its
//     count in the band, and let P, the pages of the region it becomes by
//     merging the next granule, be below 2³¹ and above (hi−lo)·g. Then
//     the merge identity applies, since |d| <= (hi−lo)·g < P, and each
//     merge lowers the count by one when the sample is below it. The count
//     stays in the band and P only grows, so this holds for every granule
//     of the run until P would reach 2³¹: each costs one draw, one sample
//     and one compare (band). Once the count is lo no sample is below it,
//     and the rest of the run only advances the noise stream
//     (lazyrand.Stream.Skip).
func (c Config) Profile(truth *access.Histogram, totalPages int64, seed int64) Pattern {
	runs := truth.Runs()
	if len(runs) == 0 {
		return Pattern{}
	}
	amp := c.NoiseAmplitude
	var noise lazyrand.Stream
	if amp != 0 {
		noise.Seed(seed)
	}
	granule := guest.PageID(max(c.MinRegionPages, 1))
	limit := guest.PageID(totalPages)
	// A run count within ±wide times a granule's pages cannot overflow.
	wide := math.MaxInt64 / int64(granule)
	out := aggregate{end: -1}
	// next is the first page no granule has covered yet; runs[i] is the
	// first run that ends after it.
	i, next := 0, guest.PageID(0)
	for {
		for i < len(runs) && runs[i].Region.End() <= next {
			i++
		}
		if i == len(runs) {
			break
		}
		r := &runs[i]
		start := max(r.Region.Start, next)
		if start >= limit {
			break
		}
		// The granules from start on that lie wholly inside r have r's count
		// as their mean; a granule that does not is averaged alone.
		mean, pages, stop := r.Count, granule, min(r.Region.End(), limit)
		if stop-start < granule || mean > wide || mean < -wide {
			end := min(start+granule, limit)
			mean, pages, stop = granuleMean(runs[i:], start, end), end-start, end
		}
		next = out.add(start, stop, pages, mean, amp, &noise)
	}
	return Pattern{Records: capRegions(out.close(), c.MaxRegions)}
}

// aggregate is Profile's output under construction: the closed records and
// the open region [start, end) with its count; end is -1 while none is
// open, since no granule ends there.
type aggregate struct {
	records    []RegionRecord
	start, end guest.PageID
	count      int64
}

// add samples the granules [from, from+pages), [from+pages, from+2·pages),
// … that end by stop, all of the given mean, and merges each into the open
// region or closes that and opens the granule. It returns the first page
// after the last granule. The loop keeps the open region in locals, and
// once Profile's band identity holds it runs the band loop for the rest.
func (a *aggregate) add(from, stop, pages guest.PageID, mean int64, amp float64, noise *lazyrand.Stream) guest.PageID {
	start, end, count := a.start, a.end, a.count
	g := int64(pages)
	// Every sample of mean lies in the band [lo, hi], which stays empty
	// (lo > hi) outside the band identity's guards.
	lo, hi := int64(1), int64(0)
	if 0 < mean && mean < 1<<31 && amp >= 0 && amp < 1 {
		lo, hi = mean, mean
		if amp != 0 {
			lo, hi = sample(mean, 0, amp), sample(mean, lazyrand.MaxFloat64, amp)
		}
		if hi >= 1<<31 || 5*(hi-lo) > lo {
			lo, hi = 1, 0
		}
	}
	p := from
	for p+pages <= stop {
		if p == end && count <= hi && lo <= count {
			// The region granule p merges into must stay under 2³¹ pages
			// and span more than (hi−lo)·g.
			if merged := int64(end + pages - start); merged < 1<<31 && (hi-lo)*g < merged {
				n := min(int64(stop-p)/g, (1<<31-1-int64(end-start))/g)
				count = band(count, lo, n, mean, amp, noise)
				p += guest.PageID(n * g)
				end = p
				continue
			}
		}
		c := mean
		if c > 0 && amp != 0 {
			c = sample(c, noise.Float64(), amp)
		}
		if p == end && similar(count, c) {
			p += pages
			end = p
			count = mergedCount(count, int64(end-start), c, g)
			continue
		}
		if end >= 0 {
			a.records = append(a.records, RegionRecord{Region: guest.Region{Start: start, Pages: int64(end - start)}, NrAccesses: count})
		}
		start, end, count = p, p+pages, c
		p += pages
	}
	a.start, a.end, a.count = start, end, count
	return p
}

// band merges n granules of the given mean into an open region of count
// in [lo, hi] under Profile's band identity, drawing one noise value per
// granule when amp is not 0, and returns the region's count. Each merge
// lowers the count by one when the sample is below it; once the count is
// lo no sample is, so the rest of the granules only advance the noise.
func band(count, lo, n, mean int64, amp float64, noise *lazyrand.Stream) int64 {
	if amp == 0 {
		return count
	}
	for ; n > 0 && count > lo; n-- {
		if sample(mean, noise.Float64(), amp) < count {
			count--
		}
	}
	noise.Skip(int(n))
	return count
}

// sample returns the count Profile observes for a granule of mean c > 0
// under the noise draw f: max(int64(math.Round(x)), 1) for
// x = c·(1+(2f−1)·amp), by the rounding identity on [0.5, 2⁵²). Below it
// and above −2⁵², math.Round(x) is at most 0, so the count is 1; elsewhere
// math.Round(x) is x itself (an integer, an infinity or NaN). Without
// math.Round, sample inlines into the granule loops.
func sample(c int64, f, amp float64) int64 {
	x := float64(c) * (1 + (f*2-1)*amp)
	if x >= 0.5 && x < 1<<52 {
		return int64(x + 0.5)
	}
	if x > -1<<52 && x < 0.5 {
		return 1
	}
	return max(int64(x), 1)
}

// close closes the open region, if any, and returns the records.
func (a *aggregate) close() []RegionRecord {
	if a.end >= 0 {
		a.records = append(a.records, RegionRecord{Region: guest.Region{Start: a.start, Pages: int64(a.end - a.start)}, NrAccesses: a.count})
	}
	return a.records
}

// granuleMean returns the page-averaged count of granule [start, end) whose
// first run is runs[0], counting untouched pages as zero; a touched granule
// averages to at least 1.
func granuleMean(runs []access.Run, start, end guest.PageID) int64 {
	var sum int64
	for _, r := range runs {
		if r.Region.Start >= end {
			break
		}
		sum += r.Count * int64(min(r.Region.End(), end)-max(r.Region.Start, start))
	}
	avg := sum / int64(end-start)
	if avg < 1 && sum > 0 {
		avg = 1
	}
	return avg
}

// ProfileTraced is Profile plus telemetry: when parent is non-nil it emits a
// KindDAMONSample span covering the monitored execution interval
// [start, end] on the parent's timeline, annotated with the sampling work
// the monitor performed.
func (c Config) ProfileTraced(truth *access.Histogram, totalPages int64, seed int64,
	parent *telemetry.Span, start, end simtime.Duration) Pattern {
	p := c.Profile(truth, totalPages, seed)
	if parent != nil {
		samples := int64(0)
		if c.SamplingInterval > 0 {
			samples = (end - start).Nanoseconds() / c.SamplingInterval.Nanoseconds()
		}
		s := parent.Child(telemetry.KindDAMONSample, "damon-sample", start,
			telemetry.I64("samples", samples),
			telemetry.I64("regions", int64(len(p.Records))),
			telemetry.F64("overhead_frac", c.OverheadFraction))
		s.EndAt(end)
	}
	return p
}

// similarityThreshold is the relative difference below which two adjacent
// regions are considered to have "similar access frequency" and are merged.
// similar's integer test multiplies by its reciprocal, 5.
const similarityThreshold = 0.2

// similar reports whether two counts are within similarityThreshold of each
// other, relative to the larger: for counts in (0, 2⁵⁰) by the integer test
// 5·|a−b| <= max(a,b), which Profile's doc comment shows is the same test,
// and otherwise by |a−b|/max(a,b) <= similarityThreshold in float64, where
// a max of 0 counts as similar. Equal counts need no case of their own (the
// quotient is ±0), and the builtin max and a sign flip stand in for
// math.Max and math.Abs, which they equal on converted int64s (never NaN
// or −0), so that similar inlines into the granule loop.
func similar(a, b int64) bool {
	if 0 < a && a < 1<<50 && 0 < b && b < 1<<50 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return 5*d <= max(a, b)
	}
	hi := max(float64(a), float64(b))
	if hi == 0 {
		return true
	}
	d := float64(a) - float64(b)
	if d < 0 {
		d = -d
	}
	return d/hi <= similarityThreshold
}

// mergedCount returns the truncated page-weighted mean of count a over
// pages−g pages and count b over g pages, (a·(pages−g) + b·g)/pages,
// without dividing where Profile's merge identity applies.
func mergedCount(a, pages, b, g int64) int64 {
	if 1 <= a && a < 1<<31 && 1 <= b && b < 1<<31 && pages < 1<<31 {
		if d := (b - a) * g; -pages <= d && d < pages {
			// d>>63 is -1 when d < 0 and 0 otherwise: no branch on the
			// noise's sign.
			return a + d>>63
		}
	}
	return (a*(pages-g) + b*g) / pages
}

// weightedMerge combines two adjacent records, averaging counts by pages.
func weightedMerge(a, b RegionRecord) RegionRecord {
	pages := a.Region.Pages + b.Region.Pages
	return RegionRecord{
		Region:     guest.Region{Start: a.Region.Start, Pages: pages},
		NrAccesses: mergedCount(a.NrAccesses, pages, b.NrAccesses, b.Region.Pages),
	}
}

// capRegions merges the most similar adjacent pairs until len <= max,
// reusing recs. Each step merges the adjacent pair with the smallest
// absolute count difference, ties going to the lowest address (records are
// in address order); pairs that are not adjacent never merge, so it stops
// early when none is left. A min-heap of candidate pairs keyed (difference,
// left record) finds each step's pair, and an entry a merge made stale is
// skipped when popped, so the cost is O(n log n), not a rescan per merge.
func capRegions(recs []RegionRecord, max int) []RegionRecord {
	n := len(recs)
	if n <= max {
		return recs
	}
	// The records form a linked list; a merged-away record's next is -1.
	next, prev := make([]int, n), make([]int, n)
	for i := range recs {
		next[i], prev[i] = i+1, i-1
	}
	// diff returns the count difference between record l and the one
	// after it, and whether the two may merge.
	diff := func(l int) (int64, bool) {
		r := next[l]
		if r < 0 || r == n || !recs[l].Region.Adjacent(recs[r].Region) {
			return 0, false
		}
		d := recs[l].NrAccesses - recs[r].NrAccesses
		if d < 0 {
			d = -d
		}
		// A pair MaxInt64 apart never merges: the merge order picks the
		// smallest difference below MaxInt64 (refCapRegions in the tests
		// spells the order out as a rescanning loop).
		return d, d != math.MaxInt64
	}
	pairs := &pairHeap{}
	push := func(l int) {
		if d, ok := diff(l); ok {
			heap.Push(pairs, pair{d, l})
		}
	}
	for i := 0; i+1 < n; i++ {
		push(i)
	}
	for live := n; live > max && pairs.Len() > 0; {
		p := heap.Pop(pairs).(pair)
		if d, ok := diff(p.left); !ok || d != p.diff {
			continue // stale: a merge changed this pair since the push
		}
		l, r := p.left, next[p.left]
		recs[l] = weightedMerge(recs[l], recs[r])
		next[l], next[r] = next[r], -1
		if next[l] < n {
			prev[next[l]] = l
		}
		live--
		if prev[l] >= 0 {
			push(prev[l])
		}
		push(l)
	}
	out := recs[:0]
	for i := 0; i < n; i = next[i] {
		out = append(out, recs[i])
	}
	return out
}

// pair is a candidate merge of record left with the record after it.
type pair struct {
	diff int64
	left int
}

// pairHeap is a container/heap min-heap of pairs ordered by (diff, left).
type pairHeap []pair

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	return h[i].diff < h[j].diff || h[i].diff == h[j].diff && h[i].left < h[j].left
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)   { *h = append(*h, x.(pair)) }
func (h *pairHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	*h = old[:len(old)-1]
	return p
}

// Unified is TOSS's unified access-pattern file: the max-merge of every
// pattern observed during the profiling phase (§V-B). It also implements the
// convergence test that ends profiling.
type Unified struct {
	perPage *access.Histogram
	// batch is Fold's reused buffer of the pattern's records as runs.
	batch []access.Run
}

// NewUnified returns an empty unified pattern.
func NewUnified() *Unified {
	return &Unified{perPage: access.NewHistogram()}
}

// Fold merges one invocation's pattern into the unified file and reports
// whether the unified pattern changed. "Changed" uses logarithmic count
// buckets: sampling noise that leaves a page in the same magnitude bucket
// does not count as change, otherwise noise alone would keep profiling open
// forever.
func (u *Unified) Fold(p Pattern) (changed bool) {
	u.batch = u.batch[:0]
	for _, rec := range p.Records {
		u.batch = append(u.batch, access.Run{Region: rec.Region, Count: rec.NrAccesses})
	}
	u.perPage.Update(u.batch, func(old, v int64) int64 {
		if v <= old {
			return old
		}
		if Bucket(v) != Bucket(old) {
			changed = true
		}
		return v // max-merge
	})
	return changed
}

// Bucket quantizes an access count into a logarithmic magnitude class.
func Bucket(count int64) int {
	if count <= 0 {
		return 0
	}
	return 1 + int(math.Log2(float64(count)))
}

// Regions converts the unified pattern into sorted region records, merging
// adjacent pages whose counts differ by less than mergeDelta absolute
// accesses (the paper's "Access count Merging" with a 100-access threshold).
func (u *Unified) Regions(mergeDelta int64) []RegionRecord {
	return coalesce(u.perPage.Runs(), func(mean, count int64) bool {
		d := count - mean
		if d < 0 {
			d = -d
		}
		return d < mergeDelta
	})
}

// coalesce turns per-page counts, given as runs, into region records by a
// walk in page order: a page joins the record before it when adjacent and
// near(the record's count, the page's count), and the record's count
// becomes the truncated page-weighted mean. Within one run the mean moves
// monotonically toward the run's count, so once a page joins, the rest of
// the run does too; once a join leaves the mean unchanged, it stays
// unchanged for the rest of the run. A run therefore costs the pages until
// that fixed point, not its length. The fixed point needs mean·pages+count
// not to overflow on any remaining page; where it could, the walk goes on
// page by page, wrapping as the per-page reference does.
func coalesce(runs []access.Run, near func(mean, count int64) bool) []RegionRecord {
	var out []RegionRecord
	for _, r := range runs {
		c := r.Count
		for p, end := r.Region.Start, r.Region.End(); p < end; p++ {
			n := len(out)
			if n == 0 || out[n-1].Region.End() != p || !near(out[n-1].NrAccesses, c) {
				out = append(out, RegionRecord{Region: guest.Region{Start: p, Pages: 1}, NrAccesses: c})
				continue
			}
			cur := &out[n-1]
			mean := (cur.NrAccesses*cur.Region.Pages + c) / (cur.Region.Pages + 1)
			if mean == cur.NrAccesses {
				lim := math.MaxInt64 / (cur.Region.Pages + int64(end-p))
				if -lim <= mean && mean <= lim && -lim <= c && c <= lim {
					cur.Region.Pages += int64(end - p)
					break
				}
			}
			cur.Region.Pages++
			cur.NrAccesses = mean
		}
	}
	return out
}

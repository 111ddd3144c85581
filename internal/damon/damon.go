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
	"math/rand"

	"toss/internal/access"
	"toss/internal/guest"
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
// deterministic sampling noise.
//
// One pass over the truth's runs does DAMON's three steps per granule:
//
//   - granulate: chunk the touched address space into minimum-size
//     granules, averaging counts within each (DAMON cannot see below its
//     minimum region size). Untouched pages are not reported (DAMON only
//     tracks populated VMAs), but a granule starts at a touched page and
//     absorbs up to MinRegionPages-1 untouched neighbours, blurring the
//     truth exactly like a real region-based monitor;
//   - sample: apply sampling noise, one draw per granule in address order;
//   - aggregate: merge the granule into the previous region when adjacent
//     with a similar access count.
//
// Then MaxRegions is enforced by merging the most similar adjacent pairs.
func (c Config) Profile(truth *access.Histogram, totalPages int64, seed int64) Pattern {
	runs := truth.Runs()
	if len(runs) == 0 {
		return Pattern{}
	}
	rng := rand.New(rand.NewSource(seed))
	granule := guest.PageID(max(c.MinRegionPages, 1))
	limit := guest.PageID(totalPages)
	var records []RegionRecord
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
		start := max(runs[i].Region.Start, next)
		if start >= limit {
			break
		}
		end := min(start+granule, limit)
		var sum int64
		for _, r := range runs[i:] {
			if r.Region.Start >= end {
				break
			}
			sum += r.Count * int64(min(r.Region.End(), end)-max(r.Region.Start, start))
		}
		next = end
		pages := int64(end - start)
		avg := sum / pages
		if avg < 1 && sum > 0 {
			avg = 1 // a touched granule always samples at least one access
		}
		rec := RegionRecord{Region: guest.Region{Start: start, Pages: pages}, NrAccesses: c.sample(avg, rng)}
		if n := len(records); n > 0 && records[n-1].Region.Adjacent(rec.Region) &&
			similar(records[n-1].NrAccesses, rec.NrAccesses, similarityThreshold) {
			records[n-1] = weightedMerge(records[n-1], rec)
			continue
		}
		records = append(records, rec)
	}
	return Pattern{Records: capRegions(records, c.MaxRegions)}
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
const similarityThreshold = 0.2

// sample perturbs a true count by the configured noise amplitude.
func (c Config) sample(trueCount int64, rng *rand.Rand) int64 {
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

// similar reports whether two counts are within threshold of each other.
func similar(a, b int64, threshold float64) bool {
	if a == b {
		return true
	}
	hi := math.Max(float64(a), float64(b))
	if hi == 0 {
		return true
	}
	return math.Abs(float64(a)-float64(b))/hi <= threshold
}

// weightedMerge combines two adjacent records, averaging counts by pages.
func weightedMerge(a, b RegionRecord) RegionRecord {
	pages := a.Region.Pages + b.Region.Pages
	count := (a.NrAccesses*a.Region.Pages + b.NrAccesses*b.Region.Pages) / pages
	return RegionRecord{
		Region:     guest.Region{Start: a.Region.Start, Pages: pages},
		NrAccesses: count,
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
// that fixed point, not its length.
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
				cur.Region.Pages += int64(end - p)
				break
			}
			cur.Region.Pages++
			cur.NrAccesses = mean
		}
	}
	return out
}

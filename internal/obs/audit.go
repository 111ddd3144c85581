package obs

import (
	"math"
	"sort"

	"toss/internal/access"
	"toss/internal/damon"
	"toss/internal/guest"
	"toss/internal/simtime"
)

// AuditResult scores one sample window's DAMON estimate against ground
// truth.
type AuditResult struct {
	// Function / Seq / At identify the audited profiling invocation.
	Function string
	Seq      int
	At       simtime.Duration
	// Pages is the number of distinct pages in the union of both views.
	Pages int
	// Threshold splits the pages into hot (count >= Threshold) and cold:
	// the median of the nonzero ground-truth counts (1 if there are none).
	Threshold int64
	// RankCorrelation is Spearman's rho between DAMON's per-page estimated
	// access counts and the exact counts, over the page union. 1 means
	// DAMON ordered every page correctly; 0 means no monotone relation.
	RankCorrelation float64
	// HotPages/ColdPages partition the union by the ground truth.
	HotPages, ColdPages int
	// HotAsCold counts truly hot pages DAMON estimated cold (the dangerous
	// direction: they would land in the slow tier). ColdAsHot is the
	// reverse (wasted fast-tier capacity).
	HotAsCold, ColdAsHot int
}

// HotMissRate is the fraction of truly hot pages DAMON called cold.
func (a AuditResult) HotMissRate() float64 {
	if a.HotPages == 0 {
		return 0
	}
	return float64(a.HotAsCold) / float64(a.HotPages)
}

// ColdMissRate is the fraction of truly cold pages DAMON called hot.
func (a AuditResult) ColdMissRate() float64 {
	if a.ColdPages == 0 {
		return 0
	}
	return float64(a.ColdAsHot) / float64(a.ColdPages)
}

// pagePair joins one page's estimated and true access counts.
type pagePair struct {
	page       guest.PageID
	est, truth int64
}

// Audit joins a DAMON pattern against exact access counts and scores the
// estimate. The page universe is the union of pages either view knows about;
// a page one side missed scores as count 0 there.
func Audit(p damon.Pattern, truth *access.Histogram) AuditResult {
	pairs := joinPages(p, truth)
	res := AuditResult{Pages: len(pairs)}
	if len(pairs) == 0 {
		res.RankCorrelation = 1 // vacuously perfect
		return res
	}

	est := make([]int64, len(pairs))
	tru := make([]int64, len(pairs))
	for i, pp := range pairs {
		est[i], tru[i] = pp.est, pp.truth
	}
	res.RankCorrelation = spearman(est, tru)

	res.Threshold = medianNonzero(tru)
	for i := range pairs {
		trulyHot := tru[i] >= res.Threshold
		estHot := est[i] >= res.Threshold
		if trulyHot {
			res.HotPages++
			if !estHot {
				res.HotAsCold++
			}
		} else {
			res.ColdPages++
			if estHot {
				res.ColdAsHot++
			}
		}
	}
	return res
}

// joinPages builds the page union sorted by page id.
func joinPages(p damon.Pattern, truth *access.Histogram) []pagePair {
	var pairs []pagePair
	if truth != nil {
		for _, pc := range truth.Sorted() {
			pairs = append(pairs, pagePair{page: pc.Page, est: p.CountAt(pc.Page), truth: pc.Count})
		}
	}
	// Pages DAMON covers that the truth never touched score truth=0.
	for _, rec := range p.Records {
		if rec.NrAccesses == 0 {
			continue
		}
		for pg := rec.Region.Start; pg < rec.Region.End(); pg++ {
			if truth == nil || truth.Count(pg) == 0 {
				pairs = append(pairs, pagePair{page: pg, est: rec.NrAccesses})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].page < pairs[j].page })
	return pairs
}

// medianNonzero returns the median of the nonzero values (1 if none).
func medianNonzero(vs []int64) int64 {
	nz := make([]int64, 0, len(vs))
	for _, v := range vs {
		if v > 0 {
			nz = append(nz, v)
		}
	}
	if len(nz) == 0 {
		return 1
	}
	sort.Slice(nz, func(i, j int) bool { return nz[i] < nz[j] })
	return nz[len(nz)/2]
}

// spearman computes Spearman's rank correlation between two equal-length
// vectors, using average ranks for ties (the general form, not the d²
// shortcut, which is only exact without ties).
func spearman(a, b []int64) float64 {
	ra := avgRanks(a)
	rb := avgRanks(b)
	return pearson(ra, rb)
}

// avgRanks assigns 1-based ranks, ties sharing their average rank.
func avgRanks(vs []int64) []float64 {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vs[idx[i]] < vs[idx[j]] })
	ranks := make([]float64, len(vs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && vs[idx[j]] == vs[idx[i]] {
			j++
		}
		// positions i..j-1 are tied; average of 1-based ranks i+1..j.
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

// pearson computes the correlation of two rank vectors. Degenerate inputs
// (either vector constant) return 1 when the vectors are identical — both
// views agree all pages are equal — and 0 otherwise.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		for i := range x {
			if x[i] != y[i] {
				return 0
			}
		}
		return 1
	}
	return cov / math.Sqrt(vx*vy)
}

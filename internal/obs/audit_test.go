package obs

import (
	"math"
	"testing"

	"toss/internal/access"
	"toss/internal/damon"
	"toss/internal/guest"
)

// rec builds one DAMON region record.
func rec(start guest.PageID, pages, nr int64) damon.RegionRecord {
	return damon.RegionRecord{Region: guest.Region{Start: start, Pages: pages}, NrAccesses: nr}
}

func pattern(recs ...damon.RegionRecord) damon.Pattern {
	return damon.Pattern{Records: recs}
}

// hist builds a ground-truth histogram from per-page counts starting at page 0.
func hist(counts ...int64) *access.Histogram {
	h := access.NewHistogram()
	runs := make([]access.Run, len(counts))
	for pg, n := range counts {
		runs[pg] = access.Run{Region: guest.Region{Start: guest.PageID(pg), Pages: 1}, Count: n}
	}
	h.Update(runs, func(_, v int64) int64 { return v })
	return h
}

// TestAuditHandBuilt pins the audit against a hand-computed pattern: eight
// pages, the first four truly hot (count 100) and the last four cold (count
// 2); DAMON's estimate swaps pages 3 and 4.
//
// Average ranks with ties: truth = [6.5 6.5 6.5 6.5 2.5 2.5 2.5 2.5],
// estimate = [6.5 6.5 6.5 2.5 6.5 2.5 2.5 2.5]. Pearson over the ranks:
// cov = 16, var = 32 each, so rho = 16/32 = 0.5 exactly. The threshold is
// the median of the nonzero truth counts [2 2 2 2 100 100 100 100], 100, so
// page 3 is hot-called-cold and page 4 cold-called-hot.
func TestAuditHandBuilt(t *testing.T) {
	truth := hist(100, 100, 100, 100, 2, 2, 2, 2)
	est := pattern(rec(0, 3, 100), rec(3, 1, 2), rec(4, 1, 100), rec(5, 3, 2))

	res := Audit(est, truth)
	if res.Pages != 8 {
		t.Fatalf("pages = %d, want 8", res.Pages)
	}
	if res.Threshold != 100 {
		t.Fatalf("threshold = %d, want 100", res.Threshold)
	}
	if math.Abs(res.RankCorrelation-0.5) > 1e-12 {
		t.Fatalf("rho = %v, want exactly 0.5", res.RankCorrelation)
	}
	if res.HotPages != 4 || res.ColdPages != 4 {
		t.Fatalf("hot/cold = %d/%d, want 4/4", res.HotPages, res.ColdPages)
	}
	if res.HotAsCold != 1 || res.ColdAsHot != 1 {
		t.Fatalf("misclass = %d/%d, want 1/1", res.HotAsCold, res.ColdAsHot)
	}
	if res.HotMissRate() != 0.25 || res.ColdMissRate() != 0.25 {
		t.Fatalf("miss rates = %v/%v", res.HotMissRate(), res.ColdMissRate())
	}
}

func TestAuditPerfectEstimate(t *testing.T) {
	truth := hist(9, 7, 5, 3, 1)
	est := pattern(rec(0, 1, 9), rec(1, 1, 7), rec(2, 1, 5), rec(3, 1, 3), rec(4, 1, 1))
	res := Audit(est, truth)
	if res.RankCorrelation != 1 {
		t.Fatalf("rho = %v, want 1", res.RankCorrelation)
	}
	if res.HotAsCold != 0 || res.ColdAsHot != 0 {
		t.Fatalf("misclass = %d/%d", res.HotAsCold, res.ColdAsHot)
	}
	// The threshold is the median of nonzero truth counts: [1 3 5 7 9]
	// -> 5.
	if res.Threshold != 5 {
		t.Fatalf("threshold = %d, want 5", res.Threshold)
	}
}

func TestAuditReversedEstimate(t *testing.T) {
	truth := hist(1, 2, 3, 4)
	est := pattern(rec(0, 1, 4), rec(1, 1, 3), rec(2, 1, 2), rec(3, 1, 1))
	res := Audit(est, truth)
	if res.RankCorrelation != -1 {
		t.Fatalf("rho = %v, want -1", res.RankCorrelation)
	}
}

func TestAuditUnionIncludesDAMONOnlyPages(t *testing.T) {
	// Truth touched pages 0-1; DAMON also claims heat on pages 4-5 (which
	// the truth never touched — they must enter the union with truth 0),
	// above the threshold of 10 the truth's counts set.
	truth := hist(10, 10)
	est := pattern(rec(0, 2, 10), rec(4, 2, 12))
	res := Audit(est, truth)
	if res.Pages != 4 {
		t.Fatalf("pages = %d, want 4", res.Pages)
	}
	if res.ColdAsHot != 2 {
		t.Fatalf("cold-as-hot = %d, want 2 (DAMON-only pages)", res.ColdAsHot)
	}
}

func TestAuditDegenerate(t *testing.T) {
	// Empty join is vacuously perfect.
	if res := Audit(damon.Pattern{}, access.NewHistogram()); res.RankCorrelation != 1 {
		t.Fatalf("empty rho = %v", res.RankCorrelation)
	}
	// All counts equal on both sides: identical rank vectors -> 1.
	truth := hist(5, 5, 5)
	if res := Audit(pattern(rec(0, 3, 7)), truth); res.RankCorrelation != 1 {
		t.Fatalf("constant-agreeing rho = %v", res.RankCorrelation)
	}
	// One side constant, the other not: no monotone signal -> 0.
	varied := pattern(rec(0, 1, 1), rec(1, 1, 2), rec(2, 1, 3))
	if res := Audit(varied, truth); res.RankCorrelation != 0 {
		t.Fatalf("degenerate rho = %v", res.RankCorrelation)
	}
}

func TestAvgRanksTies(t *testing.T) {
	got := avgRanks([]int64{10, 20, 10, 30})
	want := []float64{1.5, 3, 1.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

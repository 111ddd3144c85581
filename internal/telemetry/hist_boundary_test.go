package telemetry

import (
	"math"
	"testing"
)

// These tests pin the histogram behaviors the obs flight recorder consumes
// (it reads each histogram's count/sum/max through Each): bucket-boundary
// inclusivity, the implicit overflow bucket, and the exported Bounds/Counts
// shape.

// TestHistogramBoundaryInclusive pins the bucketing convention: bucket i
// counts v <= Bounds[i], so a value exactly on a bound lands in that bucket
// and bound+1 lands in the next.
func TestHistogramBoundaryInclusive(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat", []int64{10, 100, 1000})
	h.Observe(10)   // on the first bound -> bucket 0
	h.Observe(11)   // just past -> bucket 1
	h.Observe(100)  // on the second bound -> bucket 1
	h.Observe(1000) // on the last bound -> bucket 2
	h.Observe(1001) // past every bound -> overflow bucket

	var got Sample
	m.Each(func(name string, kind Kind, s Sample) {
		if name == "lat" {
			got = s
		}
	})
	if len(got.Counts) != len(got.Bounds)+1 {
		t.Fatalf("Counts has %d slots for %d bounds, want bounds+1", len(got.Counts), len(got.Bounds))
	}
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if got.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, got.Counts[i], w, got.Counts)
		}
	}
	if got.Count != 5 || got.Max != 1001 {
		t.Errorf("count=%d max=%d, want 5 and 1001", got.Count, got.Max)
	}
}

// TestHistogramOverflowQuantiles drives every observation into the implicit
// overflow bucket: quantiles must stay within [min, max] of the observed
// values, not explode to the (infinite) bucket ceiling.
func TestHistogramOverflowQuantiles(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("over", []int64{10})
	for _, v := range []int64{100, 200, 300} {
		h.Observe(v)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got < 100 || got > 300 {
			t.Errorf("q%g = %g, want within [100, 300]", q, got)
		}
	}
	if q1, _ := h.Quantile(1); q1 != 300 {
		t.Errorf("q1 = %g, want the max", q1)
	}
	if q0, _ := h.Quantile(0); q0 != 100 {
		t.Errorf("q0 = %g, want the min", q0)
	}
}

// TestHistogramSaturatedBounds builds a histogram over ExpBuckets that
// saturated at MaxInt64 and observes MaxInt64 itself: it must land in the
// final explicit bucket (v <= MaxInt64), not overflow, and quantiles stay
// finite.
func TestHistogramSaturatedBounds(t *testing.T) {
	bounds := ExpBuckets(math.MaxInt64/4, 8, 10)
	if bounds[len(bounds)-1] != math.MaxInt64 {
		t.Fatalf("ExpBuckets did not saturate: %v", bounds)
	}
	m := NewMetrics()
	h := m.Histogram("sat", bounds)
	h.Observe(math.MaxInt64)
	h.Observe(1)

	var got Sample
	m.Each(func(name string, kind Kind, s Sample) {
		if name == "sat" {
			got = s
		}
	})
	if overflow := got.Counts[len(got.Counts)-1]; overflow != 0 {
		t.Errorf("MaxInt64 landed in the overflow bucket (counts %v)", got.Counts)
	}
	q, err := h.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(q, 0) || math.IsNaN(q) {
		t.Errorf("q0.5 = %v, want finite", q)
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Every summary function must be total on the empty slice: zero value or an
// explicit error, never NaN and never a panic.
func TestEmptyInputs(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean": Mean(nil),
		"Min":  Min(nil),
		"Max":  Max(nil),
	} {
		if got != 0 {
			t.Errorf("%s(nil) = %v, want 0", name, got)
		}
	}
	if g, err := GeoMean([]float64{}); err != nil || g != 0 {
		t.Errorf("GeoMean(empty) = %v, %v", g, err)
	}
	if _, err := Percentile([]float64{}, 50); err == nil {
		t.Error("Percentile(empty) should error")
	}
}

// A single element is its own mean, min, max, and every percentile.
func TestSingleElement(t *testing.T) {
	xs := []float64{3.25}
	if Mean(xs) != 3.25 || Min(xs) != 3.25 || Max(xs) != 3.25 {
		t.Error("single-element mean/min/max wrong")
	}
	for _, p := range []float64{0, 37.5, 50, 100} {
		got, err := Percentile(xs, p)
		if err != nil || got != 3.25 {
			t.Errorf("P%v of singleton = %v, %v", p, got, err)
		}
	}
	g, err := GeoMean(xs)
	if err != nil || !approx(g, 3.25) {
		t.Errorf("GeoMean singleton = %v, %v", g, err)
	}
}

// Percentiles over duplicate-heavy and constant data stay exact.
func TestPercentileDuplicates(t *testing.T) {
	flat := []float64{7, 7, 7, 7}
	for _, p := range []float64{0, 25, 50, 99, 100} {
		got, err := Percentile(flat, p)
		if err != nil || got != 7 {
			t.Errorf("P%v of constant = %v, %v", p, got, err)
		}
	}
	// Interpolation between equal neighbours must not drift.
	xs := []float64{1, 2, 2, 2, 9}
	got, err := Percentile(xs, 50)
	if err != nil || got != 2 {
		t.Errorf("P50 = %v, %v", got, err)
	}
}

// Property: no summary function produces NaN or ±Inf on finite inputs,
// including negatives, zeros, and extreme magnitudes.
func TestNaNFreeProperty(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	f := func(raw []int16, p uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) * 1e12
		}
		for _, v := range []float64{Mean(xs), Min(xs), Max(xs)} {
			if !finite(v) {
				return false
			}
		}
		if len(xs) > 0 {
			q, err := Percentile(xs, float64(p%101))
			if err != nil || !finite(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// GeoMean rejects non-positive values rather than returning NaN.
func TestGeoMeanRejectsNonPositive(t *testing.T) {
	for _, xs := range [][]float64{{-1}, {0}, {2, -3}, {1, 0, 5}} {
		g, err := GeoMean(xs)
		if err == nil {
			t.Errorf("GeoMean(%v) accepted", xs)
		}
		if math.IsNaN(g) {
			t.Errorf("GeoMean(%v) returned NaN alongside error", xs)
		}
	}
}

// Percentile bounds are inclusive and out-of-range values error cleanly.
func TestPercentileBounds(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got, err := Percentile(xs, 0); err != nil || got != 1 {
		t.Errorf("P0 = %v, %v", got, err)
	}
	if got, err := Percentile(xs, 100); err != nil || got != 5 {
		t.Errorf("P100 = %v, %v", got, err)
	}
	for _, p := range []float64{-0.001, 100.001, math.NaN()} {
		if _, err := Percentile(xs, p); err == nil {
			t.Errorf("Percentile(p=%v) accepted", p)
		}
	}
}

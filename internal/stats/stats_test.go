package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil || !approx(g, 2) {
		t.Errorf("GeoMean = %v, %v", g, err)
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean accepted 0")
	}
	if g, err := GeoMean(nil); err != nil || g != 0 {
		t.Errorf("GeoMean(nil) = %v, %v", g, err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Error("Min/Max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || !approx(got, c.want) {
			t.Errorf("P%v = %v (%v), want %v", c.p, got, err, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty percentile accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	if got, _ := Percentile([]float64{42}, 75); got != 42 {
		t.Error("single-element percentile wrong")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated input")
	}
}

// Property: mean lies within [min, max]; percentiles are monotone in p.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []int8, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m := Mean(xs)
		if m < Min(xs)-1e-9 || m > Max(xs)+1e-9 {
			return false
		}
		a, b := float64(pa%101), float64(pb%101)
		if a > b {
			a, b = b, a
		}
		qa, err1 := Percentile(xs, a)
		qb, err2 := Percentile(xs, b)
		return err1 == nil && err2 == nil && qa <= qb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean <= Mean for positive inputs (AM-GM).
func TestAMGMProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g, err := GeoMean(xs)
		return err == nil && g <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

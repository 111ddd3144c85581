package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModel(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Ratio() != 2.5 {
		t.Errorf("Ratio = %v, want 2.5", m.Ratio())
	}
	if m.Optimal() != 0.4 {
		t.Errorf("Optimal = %v, want 0.4", m.Optimal())
	}
}

func TestWithRatio(t *testing.T) {
	m, err := WithRatio(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.CostSlow != 0.25 {
		t.Errorf("CostSlow = %v, want 0.25", m.CostSlow)
	}
	if _, err := WithRatio(0); err == nil {
		t.Error("ratio 0 accepted")
	}
	if _, err := WithRatio(-2); err == nil {
		t.Error("negative ratio accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{CostFast: 0, CostSlow: 0.4},
		{CostFast: 1, CostSlow: 0},
		{CostFast: 0.4, CostSlow: 1}, // slow pricier than fast
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

func TestCostEquation1(t *testing.T) {
	m := Default()
	// SDown=1.2, 100 MB fast, 400 MB slow:
	// 1.2*(100*1 + 400*0.4) = 1.2*260 = 312.
	if got := m.Cost(1.2, 100, 400); math.Abs(got-312) > 1e-9 {
		t.Errorf("Cost = %v, want 312", got)
	}
}

func TestNormalizedEndpoints(t *testing.T) {
	m := Default()
	// All fast, no slowdown: exactly 1.
	if got := m.Normalized(1, 0, 1000); got != 1 {
		t.Errorf("all-fast cost = %v, want 1", got)
	}
	// All slow, no slowdown: the optimum 0.4.
	if got := m.Normalized(1, 1000, 1000); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("all-slow cost = %v, want 0.4", got)
	}
	// All slow with the break-even slowdown 2.5: exactly 1 again.
	if got := m.Normalized(2.5, 1000, 1000); math.Abs(got-1) > 1e-12 {
		t.Errorf("break-even cost = %v, want 1", got)
	}
	if got := m.Normalized(1, 0, 0); got != 0 {
		t.Errorf("zero-page cost = %v", got)
	}
}

func TestNormalizedPaperExample(t *testing.T) {
	// pagerank-like: 49.1% slow, 25.6% slowdown ->
	// 1.256*(0.509 + 0.491*0.4) = 1.256*0.7054 ≈ 0.886.
	m := Default()
	got := m.Normalized(1.256, 491, 1000)
	if math.Abs(got-0.886) > 0.001 {
		t.Errorf("pagerank-like cost = %v, want ~0.886", got)
	}
}

// Property: normalized cost is monotone — decreasing in slowPages (at fixed
// slowdown) and increasing in slowdown (at fixed split).
func TestNormalizedMonotoneProperty(t *testing.T) {
	m := Default()
	f := func(slowA, slowB uint16, sdA, sdB uint8) bool {
		total := int64(65536)
		a, b := int64(slowA), int64(slowB)
		if a > b {
			a, b = b, a
		}
		// More slow pages -> cheaper.
		if m.Normalized(1.5, a, total) < m.Normalized(1.5, b, total) {
			return false
		}
		x, y := 1+float64(sdA)/100, 1+float64(sdB)/100
		if x > y {
			x, y = y, x
		}
		// More slowdown -> pricier.
		return m.Normalized(x, a, total) <= m.Normalized(y, a, total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the slowdown at which offloading stops paying is exactly the
// cost ratio when everything is offloaded.
func TestBreakEvenProperty(t *testing.T) {
	f := func(ratioRaw uint8) bool {
		ratio := 1 + float64(ratioRaw%40)/10 // 1.0 .. 4.9
		m, err := WithRatio(ratio)
		if err != nil {
			return false
		}
		breakEven := m.Normalized(ratio, 1000, 1000)
		return math.Abs(breakEven-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

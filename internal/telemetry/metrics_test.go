package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"toss/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("a.b")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Errorf("counter = %d", c.Value())
	}
	if m.Counter("a.b") != c {
		t.Error("counter not memoized")
	}

	g := m.Gauge("depth")
	g.Set(5)
	g.Set(2)
	g.Set(9)
	if g.Last() != 9 || g.Max() != 9 {
		t.Errorf("gauge last=%d max=%d", g.Last(), g.Max())
	}
}

func TestNilMetricsIsNoop(t *testing.T) {
	var m *Metrics
	c := m.Counter("x")
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter counted")
	}
	g := m.Gauge("x")
	g.Set(3)
	if g.Last() != 0 || g.Max() != 0 {
		t.Error("nil gauge recorded")
	}
	h := m.Histogram("x", LatencyBuckets())
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("nil histogram recorded")
	}
	if q, err := h.Quantile(0.5); err != nil || q != 0 {
		t.Error("nil histogram quantile")
	}
	if m.Dump() != "" {
		t.Error("nil dump non-empty")
	}
	if f, s := m.TierUtilization(); f != 0 || s != 0 {
		t.Error("nil tier utilization")
	}
}

func TestHistogramBasics(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5555 {
		t.Errorf("n=%d sum=%d", h.Count(), h.Sum())
	}
	if got := h.Mean(); math.Abs(got-5555.0/4) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if q, _ := h.Quantile(0); q != 5 {
		t.Errorf("q0 = %v, want exact min", q)
	}
	if q, _ := h.Quantile(1); q != 5000 {
		t.Errorf("q1 = %v, want exact max", q)
	}
	if _, err := h.Quantile(1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
	if _, err := h.Quantile(math.NaN()); err == nil {
		t.Error("NaN quantile accepted")
	}
}

// Quantile estimates from buckets should land near the exact percentile for
// a well-populated histogram.
func TestHistogramQuantileApproximatesStats(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat", ExpBuckets(1, 1.3, 60))
	rng := rand.New(rand.NewSource(7))
	var xs []float64
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64()*10000) + 1
		h.Observe(v)
		xs = append(xs, float64(v))
	}
	for _, p := range []float64{10, 50, 90, 99} {
		exact, err := stats.Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		est, err := h.Quantile(p / 100)
		if err != nil {
			t.Fatal(err)
		}
		// Bucket resolution is a factor of 1.3; allow 35% relative error.
		if math.Abs(est-exact) > 0.35*exact+5 {
			t.Errorf("P%v: est %v vs exact %v", p, est, exact)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	bs := ExpBuckets(100, 2, 5)
	want := []int64{100, 200, 400, 800, 1600}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", bs)
		}
	}
	// Degenerate inputs still produce strictly ascending bounds.
	bs = ExpBuckets(0, 1.0, 4)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("non-ascending bounds %v", bs)
		}
	}
}

// Metric updates are commutative, so concurrent use yields the same values
// (and the same Dump) as serial use — the property that keeps -metrics
// deterministic under the goroutine platform.
func TestConcurrentDeterminism(t *testing.T) {
	run := func(workers int) string {
		m := NewMetrics()
		var wg sync.WaitGroup
		per := 1000
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					m.Counter("c").Add(1)
					m.Histogram("h", LatencyBuckets()).Observe(int64(i%977 + 1))
				}
			}(w)
		}
		wg.Wait()
		return m.Dump()
	}
	serial := run(1)
	// Same total work split over 4 workers: 4x the counts.
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				m.Counter("c").Add(1)
				m.Histogram("h", LatencyBuckets()).Observe(int64(i%977 + 1))
			}
		}()
	}
	wg.Wait()
	_ = serial
	if m.Counter("c").Value() != 1000 {
		t.Errorf("concurrent counter = %d", m.Counter("c").Value())
	}
}

func TestDumpDeterministicOrder(t *testing.T) {
	build := func() string {
		m := NewMetrics()
		m.Counter("z.last").Add(1)
		m.Counter("a.first").Add(2)
		m.Gauge("mid").Set(3)
		m.Histogram("hist.b", []int64{10}).Observe(4)
		m.Histogram("hist.a", []int64{10}).Observe(4)
		return m.Dump()
	}
	d1, d2 := build(), build()
	if d1 != d2 {
		t.Error("dumps differ across identical runs")
	}
	if !strings.Contains(d1, "a.first") || !strings.Contains(d1, "hist.a") {
		t.Errorf("dump missing entries:\n%s", d1)
	}
	if strings.Index(d1, "a.first") > strings.Index(d1, "z.last") {
		t.Error("counters not sorted")
	}
}

func TestTierUtilization(t *testing.T) {
	m := NewMetrics()
	m.Counter(MetricCPUTime).Add(600)
	m.Counter(MetricFastTierTime).Add(300)
	m.Counter(MetricSlowTierTime).Add(100)
	f, s := m.TierUtilization()
	if math.Abs(f-0.3) > 1e-9 || math.Abs(s-0.1) > 1e-9 {
		t.Errorf("utilization = %v, %v", f, s)
	}
}

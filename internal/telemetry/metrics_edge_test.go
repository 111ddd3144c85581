package telemetry

import (
	"math"
	"reflect"
	"testing"
)

func assertAscending(t *testing.T, bs []int64) {
	t.Helper()
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %v", i, bs)
		}
	}
}

func TestExpBucketsEdgeCases(t *testing.T) {
	if got := ExpBuckets(100, 2, 0); len(got) != 0 {
		t.Errorf("n=0: got %v, want empty", got)
	}
	if got := ExpBuckets(100, 2, -3); len(got) != 0 {
		t.Errorf("n<0: got %v, want empty", got)
	}
	// first < 1 clamps to 1; factor <= 1 clamps to 2.
	got := ExpBuckets(0, 0.5, 4)
	want := []int64{1, 2, 4, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clamped: got %v, want %v", got, want)
	}
	// factor == 1 would never ascend without the clamp.
	assertAscending(t, ExpBuckets(10, 1, 8))
	// A tiny factor still yields strictly ascending integer bounds.
	assertAscending(t, ExpBuckets(1, 1.01, 16))
}

func TestExpBucketsOverflow(t *testing.T) {
	// Growth that blows past MaxInt64 must saturate, not wrap negative.
	got := ExpBuckets(math.MaxInt64/4, 8, 10)
	assertAscending(t, got)
	if len(got) == 0 || len(got) >= 10 {
		t.Fatalf("expected truncation below n=10, got %d bounds", len(got))
	}
	for _, b := range got {
		if b <= 0 {
			t.Fatalf("overflowed bound %d in %v", b, got)
		}
	}
	if last := got[len(got)-1]; last != math.MaxInt64 {
		t.Errorf("last bound = %d, want MaxInt64 saturation", last)
	}
	// Starting exactly at the ceiling yields the single ceiling bucket.
	got = ExpBuckets(math.MaxInt64, 2, 5)
	if len(got) != 1 || got[0] != math.MaxInt64 {
		t.Errorf("ceiling start: got %v", got)
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("empty", LatencyBuckets())
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v, err := h.Quantile(q)
		if err != nil || v != 0 {
			t.Errorf("Quantile(%v) on empty = (%v, %v), want (0, nil)", q, v, err)
		}
	}
	if _, err := h.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) accepted")
	}
	if _, err := h.Quantile(math.NaN()); err == nil {
		t.Error("Quantile(NaN) accepted")
	}
}

func TestEachOrderAndKinds(t *testing.T) {
	m := NewMetrics()
	m.Counter("b.ctr").Add(2)
	m.Counter("a.ctr").Add(1)
	m.Gauge("g").Set(7)
	m.Gauge("g").Set(3)
	m.Histogram("h", []int64{10, 100}).Observe(5)
	m.Histogram("h", nil).Observe(50)

	var names []string
	var kinds []Kind
	samples := map[string]Sample{}
	m.Each(func(name string, kind Kind, s Sample) {
		names = append(names, name)
		kinds = append(kinds, kind)
		samples[name] = s
	})
	wantNames := []string{"a.ctr", "b.ctr", "g", "h"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("order = %v, want %v", names, wantNames)
	}
	wantKinds := []Kind{KindCounter, KindCounter, KindGauge, KindHistogram}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("kinds = %v, want %v", kinds, wantKinds)
	}
	if s := samples["b.ctr"]; s.Value != 2 {
		t.Errorf("b.ctr sample = %+v", s)
	}
	if s := samples["g"]; s.Value != 3 || s.Min != 3 || s.Max != 7 {
		t.Errorf("gauge sample = %+v", s)
	}
	if s := samples["h"]; s.Count != 2 || s.Sum != 55 || s.Min != 5 || s.Max != 50 ||
		!reflect.DeepEqual(s.Bounds, []int64{10, 100}) ||
		!reflect.DeepEqual(s.Counts, []int64{1, 1, 0}) {
		t.Errorf("histogram sample = %+v", s)
	}
	// Nil registry: no callbacks, no panic.
	var nilM *Metrics
	nilM.Each(func(string, Kind, Sample) { t.Error("callback on nil registry") })
}

func TestResetKeepsInstrumentIdentity(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("c")
	c.Add(5)
	g := m.Gauge("g")
	g.Set(-2)
	h := m.Histogram("h", []int64{10})
	h.Observe(4)

	m.Reset()

	if m.Counter("c") != c || m.Gauge("g") != g || m.Histogram("h", nil) != h {
		t.Fatal("Reset replaced instrument identities")
	}
	if c.Value() != 0 {
		t.Errorf("counter after reset = %d", c.Value())
	}
	if g.Last() != 0 || g.Max() != 0 {
		t.Errorf("gauge after reset = last %d max %d", g.Last(), g.Max())
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("histogram after reset = n %d sum %d", h.Count(), h.Sum())
	}
	// Instruments stay live: the old handle records into the fresh state.
	c.Add(1)
	g.Set(9)
	if g.Max() != 9 {
		t.Errorf("gauge max after reset+set = %d, want 9 (everSet cleared)", g.Max())
	}
	h.Observe(3)
	if h.Count() != 1 || m.Counter("c").Value() != 1 {
		t.Error("instruments dead after Reset")
	}
	var nilM *Metrics
	nilM.Reset() // must not panic
}

func TestLabeled(t *testing.T) {
	if got := Labeled("obs.faults"); got != "obs.faults" {
		t.Errorf("no labels: %q", got)
	}
	got := Labeled("obs.faults", "fn", "pyaes", "tier", "fast")
	want := `obs.faults{fn="pyaes",tier="fast"}`
	if got != want {
		t.Errorf("Labeled = %q, want %q", got, want)
	}
	// Same inputs → same series name → same instrument.
	m := NewMetrics()
	if m.Counter(got) != m.Counter(Labeled("obs.faults", "fn", "pyaes", "tier", "fast")) {
		t.Error("labeled names do not aggregate")
	}
}

package obs

import (
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
	"toss/internal/telemetry"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.RecordAt(simtime.Second)
	r.Advance(simtime.Second)
	r.ObservePlacement("f", nil, 10, "test")
	r.ObservePhase("f", "initial", "profiling")
	r.MachineRestored("f", "boot", nil, 10)
	r.FaultStall("f", mem.Slow, 1, 0, simtime.Microsecond)
	r.AuditDAMON("f", 0, pattern(rec(0, 4, 1)), nil)
	if got := r.Now(); got != 0 {
		t.Fatalf("nil Now() = %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Series) != 0 || len(snap.Timelines) != 0 || len(snap.Audits) != 0 {
		t.Fatalf("nil Snapshot() not empty: %+v", snap)
	}
	if r.Metrics() != nil {
		t.Fatal("nil Metrics() != nil")
	}
}

func TestSamplingCadence(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: 100 * simtime.Millisecond, Metrics: m})
	c := m.Counter("test.ctr")

	c.Add(7)
	r.RecordAt(250 * simtime.Millisecond) // boundaries 0, 100ms, 200ms
	c.Add(3)
	r.Advance(100 * simtime.Millisecond) // now 350ms; boundary 300ms

	snap := r.Snapshot()
	if len(snap.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(snap.Series))
	}
	s := snap.Series[0]
	if s.Name != "test.ctr" {
		t.Fatalf("name = %q", s.Name)
	}
	want := []Point{
		{0, 7},
		{100 * simtime.Millisecond, 7},
		{200 * simtime.Millisecond, 7},
		{300 * simtime.Millisecond, 10},
	}
	if len(s.Points) != len(want) {
		t.Fatalf("points = %v, want %v", s.Points, want)
	}
	for i, p := range s.Points {
		if p != want[i] {
			t.Fatalf("point[%d] = %v, want %v", i, p, want[i])
		}
	}
	// RecordAt is monotonic: going backwards neither rewinds nor resamples.
	r.RecordAt(50 * simtime.Millisecond)
	if n := len(r.Snapshot().Series[0].Points); n != len(want) {
		t.Fatalf("backwards RecordAt added samples: %d", n)
	}
}

func TestHistogramSampleSeries(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: simtime.Second, Metrics: m})
	h := m.Histogram(telemetry.Labeled("test.lat", "fn", "f"), []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	r.RecordAt(simtime.Second)

	snap := r.Snapshot()
	names := map[string]bool{}
	for _, s := range snap.Series {
		names[s.Name] = true
	}
	for _, want := range []string{
		`test.lat.count{fn="f"}`, `test.lat.sum{fn="f"}`, `test.lat.max{fn="f"}`,
	} {
		if !names[want] {
			t.Errorf("missing series %q (have %v)", want, names)
		}
	}
}

// TestRingCapacity wraps a series past Capacity: only the newest Capacity
// samples survive, oldest first.
func TestRingCapacity(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: simtime.Second, Metrics: m})
	g := m.Gauge("test.g")
	const dropped = 6
	for i := 0; i < Capacity+dropped; i++ {
		g.Set(int64(i))
		r.RecordAt(simtime.Duration(i) * simtime.Second)
	}
	pts := r.Snapshot().Series[0].Points
	if len(pts) != Capacity {
		t.Fatalf("ring holds %d, want %d", len(pts), Capacity)
	}
	for i, p := range pts {
		want := dropped + i
		if wantT := simtime.Duration(want) * simtime.Second; p.T != wantT || p.V != int64(want) {
			t.Fatalf("point[%d] = %v, want {%v %d}", i, p, wantT, want)
		}
	}
}

func TestTimelineDedupAndPhaseCarry(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: simtime.Second, Metrics: m})
	slow := []guest.Region{{Start: 10, Pages: 20}}

	r.ObservePlacement("f", slow, 100, "converged")
	r.ObservePlacement("f", slow, 100, "converged") // identical — dedup
	r.Advance(simtime.Second)
	r.ObservePhase("f", "tiered", "profiling")
	r.ObservePlacement("f", []guest.Region{{Start: 10, Pages: 30}}, 100, "reconverged")

	snap := r.Snapshot()
	if len(snap.Timelines) != 1 {
		t.Fatalf("timelines = %d", len(snap.Timelines))
	}
	tl := snap.Timelines[0]
	if tl.Function != "f" {
		t.Fatalf("function = %q", tl.Function)
	}
	if len(tl.Events) != 3 {
		t.Fatalf("events = %d, want 3 (placement, phase, placement): %+v", len(tl.Events), tl.Events)
	}
	if tl.Events[0].Cause != "placement:converged" || tl.Events[0].SlowPages != 20 {
		t.Fatalf("event[0] = %+v", tl.Events[0])
	}
	// Phase events carry the prior placement forward.
	if tl.Events[1].Cause != "phase:tiered->profiling" || tl.Events[1].SlowPages != 20 ||
		tl.Events[1].TotalPages != 100 || tl.Events[1].At != simtime.Second {
		t.Fatalf("event[1] = %+v", tl.Events[1])
	}
	if tl.Events[2].SlowPages != 30 {
		t.Fatalf("event[2] = %+v", tl.Events[2])
	}
	if got := tl.Events[2].FastShare(); got != 0.7 {
		t.Fatalf("FastShare = %v", got)
	}
}

func TestMachineRestoredAndFaultStall(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: simtime.Second, Metrics: m})
	slow := []guest.Region{{Start: 0, Pages: 5}}

	r.MachineRestored("f", "restore-tiered", slow, 10)
	r.FaultStall("f", mem.Slow, 2, 1, 30*simtime.Microsecond)
	r.FaultStall("f", mem.Fast, 0, 4, simtime.Microsecond)

	tl := r.Snapshot().Timelines[0]
	if tl.Restores != 1 {
		t.Fatalf("restores = %d", tl.Restores)
	}
	if tl.Faults[mem.Slow] != 3 || tl.Faults[mem.Fast] != 4 {
		t.Fatalf("faults = %v", tl.Faults)
	}
	if tl.FaultCost[mem.Slow] != 30*simtime.Microsecond {
		t.Fatalf("slow cost = %v", tl.FaultCost[mem.Slow])
	}
	// Derived counters landed in the registry under labeled names.
	if got := m.Counter(telemetry.Labeled(MetricFaults, "fn", "f", "tier", "slow")).Value(); got != 3 {
		t.Fatalf("slow fault counter = %d", got)
	}
	if got := m.Counter(telemetry.Labeled(MetricRestores, "fn", "f", "kind", "restore-tiered")).Value(); got != 1 {
		t.Fatalf("restore counter = %d", got)
	}
	// Unlabeled machines map to "unlabeled", not an empty key.
	r.FaultStall("", mem.Slow, 1, 0, simtime.Microsecond)
	snap := r.Snapshot()
	if len(snap.Timelines) != 2 || snap.Timelines[1].Function != "unlabeled" {
		t.Fatalf("timelines = %+v", snap.Timelines)
	}
}

func TestSuffixed(t *testing.T) {
	cases := []struct{ in, sfx, want string }{
		{"a.b", ".sum", "a.b.sum"},
		{`a.b{fn="x"}`, ".sum", `a.b.sum{fn="x"}`},
	}
	for _, c := range cases {
		if got := suffixed(c.in, c.sfx); got != c.want {
			t.Errorf("suffixed(%q, %q) = %q, want %q", c.in, c.sfx, got, c.want)
		}
	}
}

// Now returns the recorder's virtual-time high-water mark.
func (r *Recorder) Now() simtime.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

// RecordAt advances the recorder's virtual clock to the absolute time now
// (monotonic; earlier values are ignored) and samples every registered
// instrument at each interval boundary crossed.
func (r *Recorder) RecordAt(now simtime.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.advanceToLocked(now)
	r.mu.Unlock()
}

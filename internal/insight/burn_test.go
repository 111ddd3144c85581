package insight

import (
	"strings"
	"testing"

	"toss/internal/simtime"
)

// sloRule is the burn rule the BurnStats tests feed: objective, fast window
// and a slow window four times as wide.
func sloRule(objective, window simtime.Duration) *Engine {
	return NewEngine(BurnRule("slo", "latency", objective, window, 4*window, 0.1, 0.05))
}

func TestBurnStatsTotals(t *testing.T) {
	e := sloRule(100*simtime.Millisecond, 10*simtime.Second)
	e.ObserveLatency("latency", simtime.Second, 50*simtime.Millisecond)
	e.ObserveLatency("latency", 2*simtime.Second, 150*simtime.Millisecond)
	e.ObserveLatency("latency", 3*simtime.Second, 100*simtime.Millisecond) // at objective: not a violation
	b := e.Burn("slo")
	if b.Observations != 3 || b.Violations != 1 {
		t.Fatalf("totals: %d/%d", b.Violations, b.Observations)
	}
	if s := b.String(); !strings.Contains(s, "1/3 over objective (burn rate 33.3%)") {
		t.Fatalf("summary: %q", s)
	}
}

func TestBurnStatsWindowPeak(t *testing.T) {
	// 10s window: a burst of violations at t=20..22s should peak higher than
	// the run-long average.
	e := sloRule(100*simtime.Millisecond, 10*simtime.Second)
	for i := 0; i < 10; i++ {
		e.ObserveLatency("latency", simtime.Duration(i)*simtime.Second, 10*simtime.Millisecond)
	}
	// These land after the first window has slid past the healthy points.
	e.ObserveLatency("latency", 20*simtime.Second, 200*simtime.Millisecond)
	e.ObserveLatency("latency", 21*simtime.Second, 200*simtime.Millisecond)
	e.ObserveLatency("latency", 22*simtime.Second, 200*simtime.Millisecond)
	b := e.Burn("slo")
	if b.Peak != 1.0 {
		t.Fatalf("peak windowed burn: want 1.0 (all live points violated), got %v", b.Peak)
	}
	// Peak is recorded at its first occurrence (strict improvement only).
	if b.PeakAt != 20*simtime.Second {
		t.Fatalf("peak time: %v", b.PeakAt)
	}
	if rate := float64(b.Violations) / float64(b.Observations); rate >= b.Peak {
		t.Fatalf("run-long rate %v should be below the windowed peak %v", rate, b.Peak)
	}
}

// TestBurnWindowPruneCompaction drives long feeds through narrow windows,
// past the amortized compaction (head > 1024): the window must keep memory
// bounded and its rates must survive compaction, in a burn rule and bare.
func TestBurnWindowPruneCompaction(t *testing.T) {
	e := sloRule(simtime.Millisecond, simtime.Second)
	for i := 0; i < 5000; i++ {
		lat := simtime.Duration(0)
		if i%2 == 1 {
			lat = 2 * simtime.Millisecond
		}
		e.ObserveLatency("latency", simtime.Duration(i)*100*simtime.Millisecond, lat)
	}
	if b := e.Burn("slo"); b.Observations != 5000 || b.Violations != 2500 {
		t.Fatalf("totals after compaction: %d/%d", b.Violations, b.Observations)
	}
	if fast := &e.states[0].fast; len(fast.points)-fast.head > 11 {
		t.Fatalf("window should hold ~11 live points, got %d", len(fast.points)-fast.head)
	}

	// A 1s window on a 100s feed must not retain the whole stream.
	var w BurnWindow
	for i := 0; i < 100000; i++ {
		w.Record(simtime.Duration(i)*simtime.Millisecond, simtime.Second, i%10 == 0)
	}
	if len(w.points) > 8192 {
		t.Fatalf("window retained %d points for a 1s window on a 100s feed", len(w.points))
	}
	if got := w.Fraction(); got < 0.09 || got > 0.11 {
		t.Fatalf("fraction = %v, want ~0.1", got)
	}
}

// TestBurnStatsSummary: a nil engine and an unknown rule report no
// completions, and the rendered line names the violations and the peak.
func TestBurnStatsSummary(t *testing.T) {
	var nilEngine *Engine
	if s := nilEngine.Burn("slo").String(); s != "slo: no completions recorded" {
		t.Fatalf("nil engine summary: %q", s)
	}
	e := sloRule(100*simtime.Millisecond, 10*simtime.Second)
	if s := e.Burn("slo").String(); s != "slo: no completions recorded" {
		t.Fatalf("empty summary: %q", s)
	}
	e.ObserveLatency("latency", simtime.Second, 200*simtime.Millisecond)
	if b := e.Burn("missing"); b != (BurnStats{}) {
		t.Fatalf("unknown rule: %+v", b)
	}
	want := "slo 100ms: 1/1 over objective (burn rate 100.0%); peak 10s-windowed burn 100.0% at t=1s"
	if s := e.Burn("slo").String(); s != want {
		t.Fatalf("summary:\n %q\nwant\n %q", s, want)
	}
}

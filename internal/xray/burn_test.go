package xray

import (
	"strings"
	"testing"

	"toss/internal/simtime"
)

func TestBurnTrackerTotals(t *testing.T) {
	bt := NewBurnTracker(100*simtime.Millisecond, 0)
	bt.Record(simtime.Second, 50*simtime.Millisecond)
	bt.Record(2*simtime.Second, 150*simtime.Millisecond)
	bt.Record(3*simtime.Second, 100*simtime.Millisecond) // at objective: not a violation
	total, viol := bt.Totals()
	if total != 3 || viol != 1 {
		t.Fatalf("totals: %d/%d", viol, total)
	}
	if got := bt.BurnRate(); got != 1.0/3.0 {
		t.Fatalf("burn rate: %v", got)
	}
}

func TestBurnTrackerWindowPeak(t *testing.T) {
	// 10s window: a burst of violations at t=20..22s should peak higher than
	// the run-long average.
	bt := NewBurnTracker(100*simtime.Millisecond, 10*simtime.Second)
	for i := 0; i < 10; i++ {
		bt.Record(simtime.Duration(i)*simtime.Second, 10*simtime.Millisecond)
	}
	// These land after the first window has slid past the healthy points.
	bt.Record(20*simtime.Second, 200*simtime.Millisecond)
	bt.Record(21*simtime.Second, 200*simtime.Millisecond)
	bt.Record(22*simtime.Second, 200*simtime.Millisecond)
	rate, at := bt.peakRate, bt.peakAt
	if rate != 1.0 {
		t.Fatalf("peak windowed burn: want 1.0 (all live points violated), got %v", rate)
	}
	// Peak is recorded at its first occurrence (strict improvement only).
	if at != 20*simtime.Second {
		t.Fatalf("peak time: %v", at)
	}
	if bt.BurnRate() >= rate {
		t.Fatalf("run-long rate %v should be below the windowed peak %v", bt.BurnRate(), rate)
	}
}

// TestBurnTrackerPruneCompaction drives long feeds through narrow windows,
// past the amortized compaction (head > 1024): the window must keep memory
// bounded and its rates must survive compaction, in the tracker and bare.
func TestBurnTrackerPruneCompaction(t *testing.T) {
	bt := NewBurnTracker(simtime.Millisecond, simtime.Second)
	for i := 0; i < 5000; i++ {
		lat := simtime.Duration(0)
		if i%2 == 1 {
			lat = 2 * simtime.Millisecond
		}
		bt.Record(simtime.Duration(i)*100*simtime.Millisecond, lat)
	}
	total, viol := bt.Totals()
	if total != 5000 || viol != 2500 {
		t.Fatalf("totals after compaction: %d/%d", viol, total)
	}
	if live := len(bt.live.points) - bt.live.head; live > 11 {
		t.Fatalf("window should hold ~11 live points, got %d", live)
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

func TestBurnTrackerNilAndSummary(t *testing.T) {
	var nilBT *BurnTracker
	nilBT.Record(0, 0) // must not panic
	if r := nilBT.BurnRate(); r != 0 {
		t.Fatal("nil tracker burn rate must be 0")
	}
	empty := NewBurnTracker(simtime.Second, 0)
	if !strings.Contains(empty.Summary(), "no completions") {
		t.Fatalf("empty summary: %q", empty.Summary())
	}
	bt := NewBurnTracker(100*simtime.Millisecond, 10*simtime.Second)
	bt.Record(simtime.Second, 200*simtime.Millisecond)
	s := bt.Summary()
	if !strings.Contains(s, "1/1 over objective") || !strings.Contains(s, "peak") {
		t.Fatalf("summary: %q", s)
	}
}

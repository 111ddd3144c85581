package xray

import (
	"fmt"

	"toss/internal/simtime"
)

// BurnTracker tracks SLO burn in virtual time: each invocation reports its
// completion time and end-to-end latency; a completion over the objective
// burns error budget. The tracker keeps a sliding window so bursts of slow
// invocations surface as a peak windowed burn rate even when the run-long
// average looks healthy — the standard burn-rate alerting shape, computed on
// the simulator's deterministic clock.
type BurnTracker struct {
	// Objective is the latency SLO: completions above it are violations.
	Objective simtime.Duration
	// Window is the sliding-window width for the windowed burn rate.
	Window simtime.Duration

	total      int64
	violations int64

	// live holds the completions within the current window.
	live BurnWindow

	peakRate float64
	peakAt   simtime.Duration
}

// NewBurnTracker returns a tracker for the given latency objective and
// window. A zero window disables the sliding-window rate (totals still
// accumulate).
func NewBurnTracker(objective, window simtime.Duration) *BurnTracker {
	return &BurnTracker{Objective: objective, Window: window}
}

// Record feeds one completion at virtual time `at` with end-to-end latency
// `latency`. Calls must be in nondecreasing `at` order.
func (t *BurnTracker) Record(at, latency simtime.Duration) {
	if t == nil {
		return
	}
	violated := latency > t.Objective
	t.total++
	if violated {
		t.violations++
	}
	if t.Window <= 0 {
		return
	}
	t.live.Record(at, t.Window, violated)
	if rate := t.live.Fraction(); rate > t.peakRate {
		t.peakRate, t.peakAt = rate, at
	}
}

// BurnWindow is a sliding violation window in virtual time: it keeps the
// points no older than the window width before the newest one and counts
// the violations among them, so the windowed rate costs O(1) amortized per
// point instead of a rescan. BurnTracker and insight's multi-window Burn
// rule both slide one. The zero value is an empty window.
type BurnWindow struct {
	// points holds (time, violated); points[head:] are live.
	points []burnPoint
	// head indexes the first live point (amortized pruning without
	// reslicing allocations on every call).
	head int
	// violations counts violated points in points[head:], maintained
	// incrementally on append and prune.
	violations int
}

type burnPoint struct {
	at       simtime.Duration
	violated bool
}

// Record appends one point at virtual time at and prunes the points older
// than width before it. Calls must be in nondecreasing at order, with the
// same width every time (the virtual clock only moves forward).
func (w *BurnWindow) Record(at, width simtime.Duration, violated bool) {
	w.points = append(w.points, burnPoint{at: at, violated: violated})
	if violated {
		w.violations++
	}
	for w.head < len(w.points) && w.points[w.head].at < at-width {
		if w.points[w.head].violated {
			w.violations--
		}
		w.head++
	}
	// Compact once the dead prefix dominates, keeping memory bounded.
	if w.head > 1024 && w.head > len(w.points)/2 {
		w.points = append(w.points[:0], w.points[w.head:]...)
		w.head = 0
	}
}

// Fraction returns the violation share of the live points (0 when none).
func (w *BurnWindow) Fraction() float64 {
	live := len(w.points) - w.head
	if live == 0 {
		return 0
	}
	return float64(w.violations) / float64(live)
}

// Totals returns completions seen and objective violations.
func (t *BurnTracker) Totals() (total, violations int64) {
	if t == nil {
		return 0, 0
	}
	return t.total, t.violations
}

// BurnRate returns the run-long violation fraction.
func (t *BurnTracker) BurnRate() float64 {
	if t == nil || t.total == 0 {
		return 0
	}
	return float64(t.violations) / float64(t.total)
}

// Peak returns the worst windowed burn rate seen and the virtual time it
// occurred at.
func (t *BurnTracker) Peak() (rate float64, at simtime.Duration) {
	if t == nil {
		return 0, 0
	}
	return t.peakRate, t.peakAt
}

// Summary renders the one-paragraph SLO report faasim prints.
func (t *BurnTracker) Summary() string {
	if t == nil || t.total == 0 {
		return "slo: no completions recorded\n"
	}
	out := fmt.Sprintf("slo %v: %d/%d over objective (burn rate %.1f%%)",
		t.Objective, t.violations, t.total, t.BurnRate()*100)
	if t.Window > 0 {
		out += fmt.Sprintf("; peak %v-windowed burn %.1f%% at t=%v",
			t.Window, t.peakRate*100, t.peakAt)
	}
	return out + "\n"
}

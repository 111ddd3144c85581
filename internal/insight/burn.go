package insight

import (
	"fmt"

	"toss/internal/simtime"
)

// BurnWindow is a sliding violation window in virtual time: it keeps the
// points no older than the window width before the newest one and counts
// the violations among them, so the windowed rate costs O(1) amortized per
// point instead of a rescan. Each Burn rule slides two, its fast and slow
// windows. The zero value is an empty window.
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

// BurnStats is a Burn rule's run-long account of its stream: the
// observations it saw, the violations among them (latency over Objective),
// and the peak violation fraction of the fast window with the time it was
// first reached. A rule whose fast window is not positive keeps no peak.
type BurnStats struct {
	// Objective is the rule's latency objective and Window its fast window.
	Objective, Window simtime.Duration
	// Observations and Violations count the stream's samples.
	Observations, Violations int64
	// Peak is the highest fast-window violation fraction, first reached at
	// PeakAt.
	Peak   float64
	PeakAt simtime.Duration
}

// observe counts one sample and, after the fast window took it, raises the
// peak to the window's fraction ff when it is higher.
func (b *BurnStats) observe(at simtime.Duration, violated bool, ff float64) {
	b.Observations++
	if violated {
		b.Violations++
	}
	if b.Window > 0 && ff > b.Peak {
		b.Peak, b.PeakAt = ff, at
	}
}

// String renders the one-line SLO report faasim prints after a run: the
// violations, the run-long burn rate and the peak windowed burn.
func (b BurnStats) String() string {
	if b.Observations == 0 {
		return "slo: no completions recorded"
	}
	return fmt.Sprintf("slo %v: %d/%d over objective (burn rate %.1f%%); peak %v-windowed burn %.1f%% at t=%v",
		b.Objective, b.Violations, b.Observations, float64(b.Violations)/float64(b.Observations)*100,
		b.Window, b.Peak*100, b.PeakAt)
}

// Burn returns the stats of the Burn rule named rule: the zero BurnStats
// when the engine has no such rule.
func (e *Engine) Burn(rule string) BurnStats {
	if e != nil {
		for _, st := range e.states {
			if st.rule.Kind == Burn && st.rule.Name == rule {
				return st.burn
			}
		}
	}
	return BurnStats{}
}

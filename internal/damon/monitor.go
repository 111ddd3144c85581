package damon

import (
	"math/rand"
	"sort"

	"toss/internal/access"
	"toss/internal/guest"
)

// Monitor is the time-driven variant of the DAMON simulation: instead of
// summarizing a whole invocation at once (Config.Profile), it replays
// DAMON's actual loop — per sampling interval, check one random page per
// region for the accessed bit; per aggregation window, record nr_accesses
// and adapt the region set by merging similar neighbours and randomly
// splitting large regions. This is the mechanism Linux ships; the one-shot
// Profile is its converged approximation, and TestMonitorMatchesProfile
// keeps the two honest against each other.
type Monitor struct {
	cfg Config
	rng *rand.Rand
	// samplesPerWindow is AggregationInterval / SamplingInterval.
	samplesPerWindow int
	regions          []MonitoredRegion
	// accumulated nr_accesses across all aggregation windows, per region
	// identity; folded into the final pattern.
	total *access.Histogram
	// hits is AggregationWindow's reused buffer of touched runs.
	hits []access.Run
}

// MonitoredRegion is one adaptive region with its current-window counter.
type MonitoredRegion struct {
	Region guest.Region
	// NrAccesses is the number of positive samples in the last window.
	NrAccesses int64
}

// NewMonitor attaches a monitor to the target regions (the guest VMAs in
// DAMON terms). samplesPerWindow is the number of sampling intervals per
// aggregation window (DAMON defaults to aggregation 100 ms over sampling
// 5 ms => 20; the paper's 10 µs sampling makes it much denser).
func NewMonitor(cfg Config, target []guest.Region, samplesPerWindow int, seed int64) *Monitor {
	if samplesPerWindow < 1 {
		samplesPerWindow = 1
	}
	m := &Monitor{
		cfg:              cfg,
		rng:              rand.New(rand.NewSource(seed)),
		samplesPerWindow: samplesPerWindow,
		total:            access.NewHistogram(),
	}
	for _, r := range guest.NormalizeRegions(target) {
		m.regions = append(m.regions, MonitoredRegion{Region: r})
	}
	return m
}

// Regions returns the current adaptive region set.
func (m *Monitor) Regions() []MonitoredRegion {
	return append([]MonitoredRegion(nil), m.regions...)
}

// AggregationWindow advances the monitor by one aggregation window during
// which the pages in `touched` were accessed (with their touch counts).
// DAMON's sampling only sees the accessed bit, so the counts are reduced to
// a touched-fraction per region.
func (m *Monitor) AggregationWindow(touched *access.Histogram) {
	runs := touched.Runs()
	m.hits = m.hits[:0]
	j := 0 // regions are sorted and disjoint, so one cursor walks the runs
	for i := range m.regions {
		r := &m.regions[i]
		// The touched pages inside the region, as clipped runs.
		for j < len(runs) && runs[j].Region.End() <= r.Region.Start {
			j++
		}
		first := len(m.hits)
		var touchedPages int64
		for k := j; k < len(runs) && runs[k].Region.Start < r.Region.End(); k++ {
			if runs[k].Count <= 0 {
				continue
			}
			start := max(runs[k].Region.Start, r.Region.Start)
			in := guest.Region{Start: start, Pages: int64(min(runs[k].Region.End(), r.Region.End()) - start)}
			touchedPages += in.Pages
			m.hits = append(m.hits, access.Run{Region: in})
		}
		frac := float64(touchedPages) / float64(r.Region.Pages)
		// Each sampling interval picks one random page; the sample is
		// positive when it lands on a touched page.
		var hits int64
		for s := 0; s < m.samplesPerWindow; s++ {
			if m.rng.Float64() < frac {
				hits++
			}
		}
		r.NrAccesses = hits
		// Accumulate into the cross-window totals at page granularity:
		// each touched page gains the region's nr_accesses.
		for k := first; k < len(m.hits); k++ {
			m.hits[k].Count = hits
		}
	}
	m.total.Update(m.hits, func(old, v int64) int64 { return old + v })
	m.adapt()
}

// adapt runs DAMON's merge-then-split step.
func (m *Monitor) adapt() {
	// Merge adjacent regions with similar last-window counts.
	merged := m.regions[:0:0]
	for _, r := range m.regions {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.Region.Adjacent(r.Region) && similar(last.NrAccesses, r.NrAccesses, similarityThreshold) {
				pages := last.Region.Pages + r.Region.Pages
				count := (last.NrAccesses*last.Region.Pages + r.NrAccesses*r.Region.Pages) / pages
				last.Region.Pages = pages
				last.NrAccesses = count
				continue
			}
		}
		merged = append(merged, r)
	}
	m.regions = merged

	// Split: DAMON keeps resolution by splitting regions at random offsets
	// while under the region budget.
	if len(m.regions) >= m.cfg.MaxRegions/2 {
		return
	}
	var out []MonitoredRegion
	for _, r := range m.regions {
		if r.Region.Pages >= 2*m.cfg.MinRegionPages && len(m.regions)+len(out) < m.cfg.MaxRegions {
			lo := m.cfg.MinRegionPages
			hi := r.Region.Pages - m.cfg.MinRegionPages
			cut := lo
			if hi > lo {
				cut = lo + m.rng.Int63n(hi-lo+1)
			}
			a, b := r.Region.Split(cut)
			out = append(out,
				MonitoredRegion{Region: a, NrAccesses: r.NrAccesses},
				MonitoredRegion{Region: b, NrAccesses: r.NrAccesses})
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region.Start < out[j].Region.Start })
	m.regions = out
}

// Snapshot returns the accumulated access pattern across all windows so
// far, in the same format as Config.Profile.
func (m *Monitor) Snapshot() Pattern {
	return Pattern{Records: coalesce(m.total.Runs(), func(mean, count int64) bool {
		return similar(count, mean, similarityThreshold)
	})}
}

// ProfileTimeline runs the time-driven monitor over an invocation's trace.
// The trace is laid out on a timeline of `totalWindows` aggregation
// windows, each event occupying a window span proportional to its share of
// the invocation's line touches (a dense burst is visible to many sampling
// intervals; a single pass to few). It is the high-fidelity alternative to
// Config.Profile and what TestMonitorMatchesProfile validates against it.
func (c Config) ProfileTimeline(tr *access.Trace, totalPages int64, totalWindows, samplesPerWindow int, seed int64) Pattern {
	if totalWindows < 1 {
		totalWindows = 1
	}
	var totalTouches int64
	for _, e := range tr.Events {
		totalTouches += e.LineTouches()
	}
	if totalTouches == 0 {
		return Pattern{}
	}
	mon := NewMonitor(c, []guest.Region{{Start: 0, Pages: totalPages}}, samplesPerWindow, seed)
	// Build each window's touched set: walk events in order, assigning
	// each a contiguous span of windows proportional to its touch volume.
	windows := make([]*access.Histogram, totalWindows)
	for i := range windows {
		windows[i] = access.NewHistogram()
	}
	var consumed int64
	for _, e := range tr.Events {
		startW := int(consumed * int64(totalWindows) / totalTouches)
		consumed += e.LineTouches()
		endW := int(consumed * int64(totalWindows) / totalTouches)
		if endW >= totalWindows {
			endW = totalWindows - 1
		}
		for w := startW; w <= endW; w++ {
			windows[w].AddEvent(e)
		}
	}
	for _, w := range windows {
		mon.AggregationWindow(w)
	}
	return mon.Snapshot()
}

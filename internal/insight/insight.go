// Package insight is the on-call surface over the stack's observability
// streams: an alerting rules engine that keeps a running summary of every
// series it sees, and a cross-run regression sentinel.
//
// The simulator's record streams — cluster completions, migration epochs,
// xray attribution budgets — are producers; nothing before this package
// consumed them the way a production on-call rotation would. insight closes
// that loop:
//
//   - Engine folds every observation, stamped with virtual time, into its
//     series' running summary — points, sum, min, max, last, and the first
//     and last times — which is all a dump, `tossctl report` or the alert
//     panel reads, so a million-invocation run costs the same memory as a
//     hundred-invocation one. Three integers replay the shape of a bounded,
//     resolution-doubling bucket series (its bucket count, width, and
//     doublings) without storing a bucket.
//
//   - The same Engine evaluates rules purely in virtual time: threshold
//     rules with a sustained-for duration, and Google-SRE-style
//     multi-window multi-burn-rate SLO rules (a fast window to catch an
//     ongoing burn, a slow window to confirm it matters), each window a
//     BurnWindow. The output is a deterministic alert log of
//     fire/resolve edges, each fire optionally blamed on the hottest xray
//     segment at that moment. A burn rule also keeps its BurnStats — its
//     observations, violations and peak fast-window burn — which is the
//     SLO report faasim prints after a run.
//
//   - Compare judges two runs' flattened artifacts cell by cell — insight
//     dumps, xray attribution dumps, or benchjson reports — and Verdict
//     renders a markdown/HTML regression report; `tossctl report -fail`
//     turns it into a CI gate.
//
// insight is strictly a consumer. It attaches to nothing on the decision
// path: feeds replay completed runs (columnar cluster records, platform
// replay records, migration epochs) through their virtual timestamps, so
// attaching insight cannot change a scheduling, routing, or migration
// decision — the observer-identity property the experiments tests pin.
//
// Determinism follows the package conventions established by telemetry and
// fleetobs: all iteration orders are explicit, the dump encodes its types
// in fixed field order with fixed number spelling (emit.Float), and a Sink
// (par.Sink) folds per-cell results by sorted cell name so suite-level
// artifacts are byte-identical at any parallelism.
package insight

import (
	"sort"

	"toss/internal/emit"
	"toss/internal/simtime"
)

const (
	// DefaultResolution is the initial bucket width of a fresh series when
	// NewEngine is given none.
	DefaultResolution = 100 * simtime.Millisecond
	// BucketBudget bounds every series' bucket count: a series that
	// outgrows it downsamples (the width doubles) instead of dropping
	// points.
	BucketBudget = 512
)

// series is one named series: its running summary and the rules watching
// it. The shape fields replay a series of at most BucketBudget buckets
// anchored at start, without storing one: an observation past the budget
// doubles the width, merging the buckets pairwise, until it lands; one
// earlier than the anchor clamps into bucket 0.
type series struct {
	start, width         simtime.Duration
	buckets, downsamples int

	points              int64
	sum, min, max, last float64
	firstAt, lastAt     simtime.Duration

	// rules watch the series, in registration order.
	rules []*ruleState
}

// observe folds value v at virtual time at into the summary. The first
// observation anchors the series on a resolution boundary and is its last
// point, whatever its time.
func (s *series) observe(at simtime.Duration, v float64, resolution simtime.Duration) {
	first := s.points == 0
	if first {
		s.start, s.width = (at/resolution)*resolution, resolution
		s.firstAt = at
	}
	if at < s.start {
		at = s.start // interleaved sources may lag the anchor; clamp exactly
	}
	idx := int((at - s.start) / s.width)
	for idx >= BucketBudget {
		// Merging pairwise leaves at most BucketBudget/2 buckets, and the
		// point lands at BucketBudget/2 or later, so its bucket ends the
		// series.
		s.width *= 2
		s.downsamples++
		idx = int((at - s.start) / s.width)
		s.buckets = idx + 1
	}
	s.buckets = max(s.buckets, idx+1)
	if first || v < s.min {
		s.min = v
	}
	if first || v > s.max {
		s.max = v
	}
	s.points++
	s.sum += v
	if first || at >= s.lastAt {
		s.last, s.lastAt = v, at
	}
}

// SeriesSummary is one series' exported aggregate block — the regression
// sentinel's comparison unit.
type SeriesSummary struct {
	// Name is the series identifier.
	Name string `json:"name"`
	// Points / Buckets / Downsamples describe the series' shape.
	Points      int64 `json:"points"`
	Buckets     int   `json:"buckets"`
	Downsamples int   `json:"downsamples"`
	// Width is the final bucket width.
	Width simtime.Duration `json:"width_ns"`
	// FirstAt / LastAt bound the observations in virtual time.
	FirstAt simtime.Duration `json:"first_ns"`
	LastAt  simtime.Duration `json:"last_ns"`
	// Min / Max / Mean / Last are the whole-series aggregates.
	Min  emit.Float `json:"min"`
	Max  emit.Float `json:"max"`
	Mean emit.Float `json:"mean"`
	Last emit.Float `json:"last"`
}

// summaries returns every observed series' summary in sorted-name order.
func (e *Engine) summaries() []SeriesSummary {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.series))
	for n, s := range e.series {
		if s.points > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]SeriesSummary, 0, len(names))
	for _, n := range names {
		s := e.series[n]
		out = append(out, SeriesSummary{
			Name:        n,
			Points:      s.points,
			Buckets:     s.buckets,
			Downsamples: s.downsamples,
			Width:       s.width,
			FirstAt:     s.firstAt,
			LastAt:      s.lastAt,
			Min:         emit.Float(s.min),
			Max:         emit.Float(s.max),
			Mean:        emit.Float(s.sum / float64(s.points)),
			Last:        emit.Float(s.last),
		})
	}
	return out
}

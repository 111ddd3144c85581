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
//     hundred-invocation one.
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
// in fixed field order with fixed number spelling (emit.Float), and a
// par.Sink folds per-cell results by sorted cell name so suite-level
// artifacts are byte-identical at any parallelism.
//
// Dumps written before the series kept only their running summaries also
// carry three shape integers per series (buckets, downsamples, width_ns).
// ReadDump skips them, and SchemaVersion stays 1: no field a reader reads
// was removed, so `tossctl report` compares a dump from either side with
// one from the other, cell for cell.
package insight

import (
	"sort"

	"toss/internal/emit"
	"toss/internal/simtime"
)

// series is one named series: its running summary and the rules watching
// it.
type series struct {
	points              int64
	sum, min, max, last float64
	firstAt, lastAt     simtime.Duration

	// rules watch the series, in registration order.
	rules []*ruleState
}

// observe folds value v at virtual time at into the summary. The first
// observation sets the first time and is the last point, whatever its
// time; a later one replaces the last point unless it is earlier in time.
func (s *series) observe(at simtime.Duration, v float64) {
	first := s.points == 0
	if first {
		s.firstAt = at
	}
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
	// Points counts the observations.
	Points int64 `json:"points"`
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
			Name:    n,
			Points:  s.points,
			FirstAt: s.firstAt,
			LastAt:  s.lastAt,
			Min:     emit.Float(s.min),
			Max:     emit.Float(s.max),
			Mean:    emit.Float(s.sum / float64(s.points)),
			Last:    emit.Float(s.last),
		})
	}
	return out
}

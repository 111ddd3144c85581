package experiments

import (
	"fmt"

	"toss/internal/cluster"
	"toss/internal/insight"
	"toss/internal/migrate"
	"toss/internal/simtime"
)

// This file wires the alert-bearing experiments (ext10, ext11) to
// internal/insight. Each cell builds a private engine, replays the cell's
// already-recorded outcomes through it in completion order, and reports the
// resulting alert edges in the table notes (always) and into
// Suite.InsightSink (when attached). The feeds run strictly after the
// simulated run finishes, off the same record streams the tables are
// computed from, so attaching insight cannot change any decision the run
// made — the observer-identity test pins this by comparing rendered tables
// with and without a sink.

// ext10 SLO parameters: the inflation objective a warm hit should meet, and
// the burn fractions of the two-window rules. Windows are fractions of the
// horizon (5m and 1h at full scale) so reduced CI runs evaluate the same
// shape.
const (
	ext10InflObjective = 10 * simtime.Millisecond
	ext10FastBurn      = 0.10
	ext10SlowBurn      = 0.05
)

// ext10Insight replays one fleet cell's completions through the two ext10
// SLO rules — warm-hit-inflation burn and cold-start-rate burn — and
// returns the cell's insight result. The feed walks the records in
// completion order, the nondecreasing virtual-time shape the burn windows
// require, and starts after the steady-state warmup window so the
// unavoidable fleet-fill cold burst does not page anyone — the same cutoff
// the table's p99 inflation metric applies.
func ext10Insight(mech string, rep *cluster.Report, horizon, warmup simtime.Duration, p99Ms, coldPct float64) insight.Result {
	fast, slow := horizon/288, horizon/24
	eng := insight.NewEngine(
		insight.NewStore(insight.Config{Resolution: horizon / insight.DefaultMaxBuckets}),
		insight.BurnRule("warm-hit-inflation-slo", "inflation", ext10InflObjective, fast, slow, ext10FastBurn, ext10SlowBurn),
		insight.BurnRule("cold-start-rate", "cold", 0, fast, slow, ext10FastBurn, ext10SlowBurn),
	)
	recs := &rep.Records
	for k := 0; k < recs.Len(); k++ {
		i := recs.Completed(k)
		lat := recs.Latency(i)
		at := recs.Arrival(i) + lat
		if at < warmup {
			continue
		}
		eng.ObserveLatency("inflation", at, lat-recs.WarmExec(i))
		var coldLat simtime.Duration
		if recs.Cold(i) {
			coldLat = simtime.Millisecond // any value > the 0 objective
		}
		eng.ObserveLatency("cold", at, coldLat)
	}
	// Whole-run summary points give the regression sentinel the table's own
	// headline numbers as named (cell, metric) comparison units.
	eng.Observe("inflation_p99_ms", horizon, p99Ms)
	eng.Observe("cold_pct", horizon, coldPct)
	return eng.Result("ext10/" + mech)
}

// ext11InsightFeed accumulates one migration cell's per-epoch and
// per-invocation signals into an engine as the cell loop runs. All inputs
// are values the loop computes anyway; the feed only observes them.
type ext11InsightFeed struct {
	eng  *insight.Engine
	prev migrate.Stats
}

// ext11 alerting parameters: the latency objective one invocation should
// meet, the burn fractions, and the sustained-fetch threshold that flags a
// placement persistently missing the direct tiers.
const (
	ext11LatencyObjective = 80 * simtime.Millisecond
	ext11FastBurn         = 0.25
	ext11SlowBurn         = 0.10
	ext11FetchLimitMs     = 1.0
)

// newExt11InsightFeed builds the per-cell engine: a multi-window burn rule
// on invocation latency (fast 4 epochs, slow 16) and a sustained-fetch
// threshold rule on the per-epoch synchronous fault-in cost.
func newExt11InsightFeed(epoch simtime.Duration) *ext11InsightFeed {
	return &ext11InsightFeed{eng: insight.NewEngine(
		insight.NewStore(insight.Config{Resolution: epoch}),
		insight.BurnRule("epoch-latency-slo", "latency", ext11LatencyObjective, 4*epoch, 16*epoch, ext11FastBurn, ext11SlowBurn),
		insight.Rule{
			Name: "sustained-fetch", Kind: insight.Threshold, Series: "epoch_fetch_ms",
			Op: insight.Above, Limit: ext11FetchLimitMs, For: 4 * epoch,
		},
	)}
}

// invocation records one invocation's end-to-end latency.
func (f *ext11InsightFeed) invocation(at simtime.Duration, lat simtime.Duration) {
	f.eng.ObserveLatency("latency", at, lat)
}

// epoch records the per-epoch series after the epoch's tick: synchronous
// fetch cost, charged migration stall, and the migration engine's activity
// deltas.
func (f *ext11InsightFeed) epoch(at simtime.Duration, fetch, wait simtime.Duration, cur migrate.Stats) {
	f.eng.Observe("epoch_fetch_ms", at, float64(fetch)/float64(simtime.Millisecond))
	f.eng.Observe("epoch_stall_ms", at, float64(wait)/float64(simtime.Millisecond))
	f.eng.Observe("migrate.moves", at, float64(cur.Moves()-f.prev.Moves()))
	f.eng.Observe("migrate.moved_pages", at, float64(cur.MovedPages-f.prev.MovedPages))
	f.eng.Observe("migrate.busy_ms", at, float64(cur.BusyTime-f.prev.BusyTime)/float64(simtime.Millisecond))
	f.prev = cur
}

// finish stamps the cell's headline numbers and snapshots the result.
func (f *ext11InsightFeed) finish(cell string, at simtime.Duration, p99Ms, hitPct float64) insight.Result {
	f.eng.Observe("p99_ms", at, p99Ms)
	f.eng.Observe("dram_hit_pct", at, hitPct)
	return f.eng.Result(cell)
}

// insightNote summarizes a set of cell results into one deterministic table
// note: how many cells alerted, the total fire edges, and which rules fired.
func insightNote(results []insight.Result) string {
	cellsFired, fires := 0, 0
	rules := map[string]bool{}
	var order []string
	for _, r := range results {
		f := r.Fires()
		if f > 0 {
			cellsFired++
		}
		fires += f
		for _, a := range r.Alerts {
			if bool(a.Firing) && !rules[a.Rule] {
				rules[a.Rule] = true
				order = append(order, a.Rule)
			}
		}
	}
	if fires == 0 {
		return fmt.Sprintf("insight: no SLO alerts fired across %d cells", len(results))
	}
	note := fmt.Sprintf("insight: %d of %d cells fired %d alert edge(s)", cellsFired, len(results), fires)
	note += " [rules:"
	for _, r := range order {
		note += " " + r
	}
	return note + "]"
}

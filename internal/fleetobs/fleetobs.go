// Package fleetobs renders a finished internal/cluster run for the
// fleet-scale questions internal/xray does not answer: which node got each
// arrival and why (affinity hit, spill down the hash ranking, shed), what
// the autoscaler saw when it resized the fleet, and how utilization, queue
// depth, and snapshot-tier occupancy moved across the node grid over the
// run.
//
// The cluster's event loop records all of it in the run's report
// (cluster.Config.Trace fills cluster.Report.Trace; the autoscaler's
// actions are cluster.Report.ScaleEvents), so this package only renders,
// and every renderer is a function of a finished *cluster.Report:
//
//   - Virtual time only. Every decision and sample is stamped with the
//     cluster's simulated clock, so a rendering replays identically from
//     the seed and is byte-identical at any experiment parallelism.
//
//   - Deterministic exports. The JSON-lines decision log, the Chrome trace
//     (one track per node), the /fleet dashboard HTML and JSON, and the
//     -fleetview ASCII grid are all hand-serialized with fixed field order
//     and fixed number formatting, and covered by golden tests.
//
// A par.Sink of cell-tagged DecisionLog strings folds many runs (one per
// experiment cell) into a single deterministic log regardless of the order
// cells complete in.
package fleetobs

import (
	"sort"

	"toss/internal/cluster"
	"toss/internal/simtime"
	"toss/internal/stats"
)

// nodeIDs returns, sorted, every node the trace names: each sampled node and
// each node a decision chose.
func nodeIDs(tr *cluster.Trace) []string {
	seen := map[string]bool{}
	for _, d := range tr.Decisions {
		seen[d.Node] = true
	}
	for _, s := range tr.Samples {
		seen[s.Node] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// walk visits a traced run's routing decisions and autoscaler actions in
// simulation order. The cluster loop routes an arrival before it runs an
// autoscaler tick due at the same instant, so a decision goes ahead of a
// scale action with an equal timestamp.
func walk(rep *cluster.Report, route func(*cluster.Decision), scale func(*cluster.ScaleEvent)) {
	ds, ss := rep.Trace.Decisions, rep.ScaleEvents
	for len(ds) > 0 || len(ss) > 0 {
		if len(ss) == 0 || len(ds) > 0 && ds[0].At <= ss[0].At {
			route(&ds[0])
			ds = ds[1:]
		} else {
			scale(&ss[0])
			ss = ss[1:]
		}
	}
}

// percentile returns the p-th percentile of ls (which it sorts a copy of),
// using the same nearest-rank convention as the cluster's reports.
func percentile(ls []simtime.Duration, p float64) simtime.Duration {
	return stats.NearestRankInPlace(append([]simtime.Duration(nil), ls...), p)
}

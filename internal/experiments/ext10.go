package experiments

import (
	"fmt"

	"toss/internal/cluster"
	"toss/internal/insight"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// ext10 runs the event core at its design scale: one full simulated day of
// diurnal traffic with flash crowds riding on it, streamed through the
// fleet without ever materializing the arrival schedule. At the default
// cluster scale the day covers ~1.26M invocations (mean IAT 120 ms, the
// diurnal+flash shape multiplies the base rate by ~1.75), which is the
// regime the columnar record log and the allocation-free dispatch path
// exist for.
const (
	ext10Horizon = 86400 * simtime.Second
	ext10IAT     = 120 * simtime.Millisecond
	ext10Nodes   = 4
)

// ExtMillionDay replays one simulated day — diurnal baseline, flash-crowd
// episodes — through a fixed affinity-routed fleet, for a tiered (TOSS)
// fleet versus the equal-memory-cost DRAM-only fleet (ext9's host sizing).
// Arrivals are pulled from a streaming generator and the run attaches no
// per-invocation observers, so memory stays at the columnar record log and
// the event loop allocates nothing per invocation; a million-invocation
// fleet-day closes in about a second of wall clock. Suite.ClusterScale
// shrinks the horizon for CI smoke runs; the arrival shape is
// scale-invariant (episode spacing and length are fractions of the
// horizon), so a 2% day exercises the same code paths.
func ExtMillionDay(s *Suite) (*Table, error) {
	scale := s.ClusterScale
	if scale <= 0 {
		scale = 1
	}
	horizon := simtime.Duration(float64(ext10Horizon) * scale)
	warmup := horizon / 24

	t := &Table{
		ID: "ext10",
		Title: fmt.Sprintf("Million-invocation day: diurnal+flash arrivals over %s, TOSS fleet vs equal-cost DRAM fleet",
			horizon.Std()),
		Header: []string{"fleet", "invocations", "inv/s", "p99 infl (ms)", "cold %", "pulls", "pull time (s)"},
	}

	// Measure and size the fleet exactly as ext9 does, so the two
	// experiments describe the same hardware trade at different time scales.
	hw, err := s.ext9Sizing()
	if err != nil {
		return nil, err
	}

	type row struct {
		invocations int
		thr         float64
		p99Ms       float64
		coldPct     float64
		pulls       int64
		pullSecs    float64
		ins         insight.Result
	}
	mechs := []string{"toss", "dram"}
	results, err := par.Map(s.Pool(), mechs, func(_ int, mech string) (row, error) {
		profiles, host := hw.toss, hw.tossHost
		if mech == "dram" {
			profiles, host = hw.dram, hw.dramHost
		}
		cfg := cluster.Config{
			Hosts:           host.Hosts(ext10Nodes),
			Cores:           16,
			DiskBytes:       hw.disk,
			PullBytesPerSec: 2 << 30,
			ResumeCost:      500 * simtime.Microsecond,
			Router:          cluster.RouteAffinity,
			Cost:            s.Core.Cost,
			// Deliberately no XRay/FleetObs: at a million invocations the
			// per-invocation budget/trace surfaces would dwarf the run
			// itself, and with no observers attached the cluster skips
			// Record materialization entirely.
		}
		src, err := workload.NewStream(workload.ArrivalsConfig{
			Process:   workload.ProcDiurnalFlash,
			Horizon:   horizon,
			MeanIAT:   ext10IAT,
			Functions: ext9Funcs,
			Seed:      s.BaseSeed*1000 + 10,
			// Softer crowds, matching ext9's sustained sweep.
			FlashFactor: 4,
		})
		if err != nil {
			return row{}, err
		}
		cl, err := cluster.New(cfg, profiles)
		if err != nil {
			return row{}, err
		}
		rep, err := cl.RunStream(src)
		if err != nil {
			return row{}, err
		}
		p99Ms := float64(ext9InflationP99(rep, warmup)) / float64(simtime.Millisecond)
		coldPct := rep.ColdFraction() * 100
		return row{
			invocations: rep.Records.Len(),
			thr:         rep.Throughput(),
			p99Ms:       p99Ms,
			coldPct:     coldPct,
			pulls:       rep.Pulls,
			pullSecs:    float64(rep.PullTime) / float64(simtime.Second),
			// Alerting replays the columnar record log after the run; the
			// hot loop above still ran observer-free.
			ins: ext10Insight(mech, rep, horizon, warmup, p99Ms, coldPct),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	for i, mech := range mechs {
		r := results[i]
		t.AddRow(mech,
			fmt.Sprintf("%d", r.invocations),
			fmt.Sprintf("%.1f", r.thr),
			fmt.Sprintf("%.1f", r.p99Ms),
			fmt.Sprintf("%.2f%%", r.coldPct),
			fmt.Sprintf("%d", r.pulls),
			fmt.Sprintf("%.2f", r.pullSecs))
	}

	toss, dram := results[0], results[1]
	t.AddNote("%d-node affinity-routed fleet, %d cores/node; hosts and disk sized as in ext9 (equal memory cost at ratio %.1f:1)",
		ext10Nodes, 16, s.Core.Cost.CostFast/s.Core.Cost.CostSlow)
	t.AddNote("arrivals streamed (never materialized): diurnal baseline, flash factor 4, mean IAT %s; p99 inflation over steady state (past %s)",
		ext10IAT.Std(), warmup.Std())
	if scale != 1 {
		t.AddNote("cluster scale %.3g: horizon reduced from the full %s day", scale, ext10Horizon.Std())
	}
	if toss.invocations != dram.invocations {
		t.AddNote("WARNING: fleets saw different invocation counts (%d vs %d) off one arrival seed", toss.invocations, dram.invocations)
	}
	if scale >= 1 {
		if toss.invocations >= 1_000_000 {
			t.AddNote("the day covers %d invocations in one streamed event-loop pass", toss.invocations)
		} else {
			t.AddNote("WARNING: full-scale day simulated only %d invocations, want >= 1M", toss.invocations)
		}
	}
	switch {
	case toss.p99Ms > dram.p99Ms:
		t.AddNote("WARNING: TOSS p99 inflation %.1f ms above equal-cost DRAM's %.1f ms over the day", toss.p99Ms, dram.p99Ms)
	default:
		t.AddNote("the tiered fleet holds p99 inflation at or below the equal-cost DRAM fleet's over a full day (%.1f ms vs %.1f ms)",
			toss.p99Ms, dram.p99Ms)
	}
	if toss.coldPct > dram.coldPct {
		t.AddNote("WARNING: TOSS cold fraction %.2f%% above DRAM's %.2f%%", toss.coldPct, dram.coldPct)
	}
	t.AddNote("%s", insightNote([]insight.Result{toss.ins, dram.ins}))
	if toss.ins.Fires() > 0 {
		t.AddNote("WARNING: the tiered fleet fired %d SLO alert edge(s) over the day", toss.ins.Fires())
	}
	for _, r := range results {
		s.InsightSink.Record(r.ins.Cell, r.ins)
	}
	return t, nil
}

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

// Ext10Horizon returns ext10's arrival horizon at a cluster scale (see
// Suite.ClusterScale): the full day times the scale, in whole nanoseconds.
// It fails when the scaled day is not a positive duration that fits in
// int64, so no run could have it.
func Ext10Horizon(scale float64) (simtime.Duration, error) {
	h := float64(ext10Horizon) * scale
	if !(h >= 1 && h < 1<<63) {
		return 0, fmt.Errorf("ext10's %s day scales to %g ns, not a positive duration that fits in int64", ext10Horizon.Std(), h)
	}
	return simtime.Duration(h), nil
}

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
	horizon, err := Ext10Horizon(scale)
	if err != nil {
		return nil, err
	}
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
			// Deliberately no XRay or Trace: at a million invocations the
			// per-invocation budget/trace surfaces would dwarf the run
			// itself, and with neither on the cluster skips Record
			// materialization entirely.
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
	// Both fleets replay one arrival stream, which carries at least its base
	// rate over the horizon (the diurnal+flash shape only adds to it).
	t.Claim("ext10.same_arrivals", toss.invocations == dram.invocations, "")
	t.Claim("ext10.base_rate", int64(toss.invocations) >= int64(horizon/ext10IAT), "")
	if scale >= 1 {
		t.Claim("ext10.million_invocations", toss.invocations >= 1_000_000,
			"the day covers %d invocations in one streamed event-loop pass", toss.invocations)
	}
	t.Claim("ext10.p99_positive", toss.p99Ms > 0 && dram.p99Ms > 0, "")
	t.Claim("ext10.toss_p99_at_most_dram", toss.p99Ms <= dram.p99Ms,
		"the tiered fleet holds p99 inflation at or below the equal-cost DRAM fleet's over a full day (%.1f ms vs %.1f ms)",
		toss.p99Ms, dram.p99Ms)
	t.Claim("ext10.toss_cold_at_most_dram", toss.coldPct <= dram.coldPct, "")
	t.AddNote("%s", insightNote([]insight.Result{toss.ins, dram.ins}))
	t.Claim("ext10.toss_no_alerts", toss.ins.Fires() == 0, "")
	for _, r := range results {
		s.InsightSink.Record(r.ins.Cell, r.ins)
	}
	return t, nil
}

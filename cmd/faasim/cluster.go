package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"toss/internal/cluster"
	"toss/internal/fleet"
	"toss/internal/fleetobs"
	"toss/internal/insight"
	"toss/internal/platform"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
	"toss/internal/xray"
)

// runCluster profiles the functions once through the single-host machinery,
// generates a seeded arrival stream, replays it through the fleet simulator,
// and prints the per-function and fleet-level summary. Everything downstream
// of the profile is a serial event loop, so the output is byte-deterministic
// for a given flag set.
func runCluster(o *options, w io.Writer) (*dashboard, error) {
	mech := o.mode
	if mech == platform.ModeSlow {
		return nil, usagef("-mode %s has no cluster profile (cluster mode supports toss, reap, faasnap, dram)", mech)
	}

	pol, err := cluster.ParsePolicy(o.router)
	if err != nil {
		return nil, usagef("%v", err)
	}
	proc, err := workload.ParseProcess(o.arrival)
	if err != nil {
		return nil, usagef("%v", err)
	}

	names := o.names()
	scfg := sched.DefaultConfig()
	scfg.Core = o.coreConfig()
	scfg.Mechanism = mech
	fmt.Fprintf(w, "profiling %d functions in %s mode...\n", len(names), mech)
	profiles, err := cluster.Profile(scfg, names)
	if err != nil {
		return nil, err
	}

	src, err := workload.NewStream(workload.ArrivalsConfig{
		Process:   proc,
		Horizon:   simtime.FromStd(o.horizon),
		MeanIAT:   simtime.FromStd(o.meanIAT),
		Functions: names,
		Seed:      o.seed,
	})
	if err != nil {
		return nil, usagef("%v", err)
	}

	ccfg := cluster.DefaultConfig(o.nodes)
	if mech == sched.MechDRAM {
		// A DRAM fleet has no slow tier to keep VMs in; price it honestly.
		ccfg.Hosts = fleet.DRAMOnlyHost().Hosts(o.nodes)
	}
	ccfg.Router = pol
	if o.slo > 0 {
		ccfg.SLO = simtime.FromStd(o.slo)
	}
	if o.autoscale {
		ccfg.Autoscale.Enabled = true
	}
	var xcol *xray.Collector
	if o.explaining() || o.httpAddr != "" || o.alerting() {
		xcol = xray.NewCollector()
		ccfg.XRay = xcol
	}
	// The fleet observability surfaces (the ASCII dashboard, the decision
	// log, the per-node Chrome trace and the dashboard's node grid) all
	// render from the finished run's trace.
	ccfg.Trace = o.fleetview || o.decisionLog != "" || o.fleetTrace != "" || o.httpAddr != ""

	cl, err := cluster.New(ccfg, profiles)
	if err != nil {
		return nil, usagef("%v", err)
	}
	fmt.Fprintf(w, "cluster: %d nodes (%s router), %s arrivals over %s (mean IAT %s)\n\n",
		o.nodes, pol, proc, o.horizon, o.meanIAT)
	rep, err := cl.RunStream(src)
	if err != nil {
		return nil, err
	}

	// The SLO report and the alert rules replay the run's completion-ordered
	// record log after the event loop finishes, so they change no routing
	// or scaling decision. Fire edges blame the hottest attribution segment.
	budgets := xcol.Snapshot()
	window := simtime.FromStd(o.sloWindow)
	eng := insight.NewEngine(
		latencyRule(o, ccfg.SLO),
		insight.BurnRule("cold-start-rate", "cold", 0, window, 4*window, 0.25, 0.10))
	var alerts *insight.Engine
	if o.alerting() {
		alerts = eng
		alerts.SetBlamer(insight.BlameTop(xray.Aggregate("cluster", budgets)))
	}
	recs := &rep.Records
	for k := 0; k < recs.Len(); k++ {
		i := recs.Completed(k)
		lat := recs.Latency(i)
		at := recs.Arrival(i) + lat
		eng.ObserveLatency("latency", at, lat)
		if alerts == nil {
			continue // only the alert log and dump read the cold stream
		}
		var coldLat simtime.Duration
		if recs.Cold(i) {
			coldLat = simtime.Millisecond // any value > the 0 objective
		}
		eng.ObserveLatency("cold", at, coldLat)
	}

	printClusterReport(w, rep, names)
	fmt.Fprintf(w, "\n%s\n", eng.Burn("latency-slo"))
	explain(w, o, budgets)
	if alerts != nil {
		if err := writeInsight(w, o, alerts, "cluster/"+mech.String()); err != nil {
			return nil, err
		}
	}

	if o.fleetview {
		fmt.Fprintf(w, "\n%s", fleetobs.RenderFleet(rep, 32))
	}
	if err := writeExport(w, o.decisionLog, "fleet: wrote decision log to "+o.decisionLog, func(w io.Writer) error {
		return fleetobs.WriteDecisionLog(w, rep)
	}); err != nil {
		return nil, err
	}
	if err := writeExport(w, o.fleetTrace, "fleet: wrote Chrome trace to "+o.fleetTrace, func(w io.Writer) error {
		return fleetobs.WriteChromeTrace(w, rep)
	}); err != nil {
		return nil, err
	}

	if o.httpAddr == "" {
		return nil, nil
	}
	// The fleet simulator drives no microVMs, so there is no flight
	// recorder; the panels are the node grid, the attribution and alerts.
	return newDashboard("fleet dashboard", nil, xcol, rep, alerts), nil
}

// printClusterReport renders the per-function table, the per-node table, and
// the fleet rollup.
func printClusterReport(w io.Writer, rep *cluster.Report, functions []string) {
	type agg struct {
		n    int
		cold int
		lat  []simtime.Duration
	}
	byFn := make(map[string]*agg, len(functions))
	for _, fn := range functions {
		byFn[fn] = &agg{}
	}
	recs := &rep.Records
	for i := 0; i < recs.Len(); i++ {
		a := byFn[recs.Function(i)]
		a.n++
		if recs.Cold(i) {
			a.cold++
		}
		a.lat = append(a.lat, recs.Latency(i))
	}
	names := append([]string(nil), functions...)
	sort.Strings(names)

	fmt.Fprintf(w, "%-18s %8s %8s %12s %12s\n", "function", "invokes", "cold %", "p50", "p99")
	for _, fn := range names {
		a := byFn[fn]
		coldPct := 0.0
		if a.n > 0 {
			coldPct = float64(a.cold) / float64(a.n) * 100
		}
		fmt.Fprintf(w, "%-18s %8d %7.1f%% %12s %12s\n", fn, a.n, coldPct,
			stats.NearestRankInPlace(a.lat, 50).Std().Round(time.Microsecond).String(),
			stats.NearestRankInPlace(a.lat, 99).Std().Round(time.Microsecond).String())
	}

	fmt.Fprintf(w, "\n%-6s %8s %8s %12s %s\n", "node", "invokes", "cold", "busy", "final")
	for _, ns := range rep.Nodes {
		fmt.Fprintf(w, "%-6s %8d %8d %12s %v\n", ns.ID, ns.Invocations, ns.ColdStarts,
			ns.Busy.Std().Round(time.Millisecond).String(), ns.Final)
	}

	if len(rep.Router.PerNode) > 0 {
		fmt.Fprintf(w, "\n%-6s %10s %10s %8s %8s\n", "node", "decisions", "affinity", "spills", "sheds")
		for _, pn := range rep.Router.PerNode {
			fmt.Fprintf(w, "%-6s %10d %10d %8d %8d\n",
				pn.Node, pn.Decisions, pn.AffinityHits, pn.Spills, pn.Sheds)
		}
	}

	fmt.Fprintf(w, "\nrouter: %d decisions (%d affinity hits, %d spills, %d sheds); snapshot pulls %d (%s)\n",
		rep.Router.Decisions, rep.Router.AffinityHits, rep.Router.Spills, rep.Router.Sheds,
		rep.Pulls, rep.PullTime.Std().Round(time.Millisecond))
	fmt.Fprintf(w, "fleet: peak %d nodes, final %d, %d scale events; cold starts %.1f%%; %.1f inv/s over %s\n",
		rep.PeakNodes, rep.FinalNodes, len(rep.ScaleEvents),
		rep.ColdFraction()*100, rep.Throughput(),
		rep.Horizon.Std().Round(time.Millisecond))
	for _, ev := range rep.ScaleEvents {
		fmt.Fprintf(w, "  scale %-4s %-4s at %-10s util %.2f burn %.2f fleet %d\n",
			ev.Action, ev.Node, ev.At.Std().Round(time.Millisecond), ev.Util, ev.Burn, ev.Fleet)
	}
}

package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"toss/internal/cliutil"
	"toss/internal/cluster"
	"toss/internal/fleet"
	"toss/internal/fleetobs"
	"toss/internal/insight"
	"toss/internal/obs"
	"toss/internal/platform"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// clusterOpts carries the parsed flags that drive cluster mode (-nodes > 0).
type clusterOpts struct {
	nodes      int
	router     string
	arrival    string
	horizon    time.Duration
	meanIAT    time.Duration
	autoscale  bool
	mode       platform.Mode
	window     int
	seed       int64
	functions  []string
	slo        time.Duration
	sloWindow  time.Duration
	alerts     bool
	reportOut  string
	explain    bool
	explainTop int
	// Fleet observability surfaces (internal/fleetobs): the ASCII
	// dashboard, the decision log, the per-node Chrome trace, and the live
	// HTTP node grid all render from one recorder attached to the run.
	fleetview      bool
	decisionLog    string
	fleetTrace     string
	httpAddr       string
	recordInterval time.Duration
}

// runCluster profiles the functions once through the single-host machinery,
// generates a seeded arrival stream, replays it through the fleet simulator,
// and prints the per-function and fleet-level summary. Everything downstream
// of the profile is a serial event loop, so the output is byte-deterministic
// for a given flag set.
func runCluster(o clusterOpts) int {
	var mech sched.Mechanism
	switch o.mode {
	case platform.ModeTOSS:
		mech = sched.MechTOSS
	case platform.ModeREAP:
		mech = sched.MechREAP
	case platform.ModeFaaSnap:
		mech = sched.MechFaaSnap
	case platform.ModeDRAM:
		mech = sched.MechDRAM
	default:
		fmt.Fprintf(os.Stderr, "faasim: -mode %s has no cluster profile (cluster mode supports toss, reap, faasnap, dram)\n", o.mode)
		return 2
	}

	pol, err := cluster.ParsePolicy(o.router)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		return 2
	}
	proc, err := workload.ParseProcess(o.arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		return 2
	}

	scfg := sched.DefaultConfig()
	scfg.Core.ConvergenceWindow = o.window
	scfg.Mechanism = mech
	fmt.Printf("profiling %d functions in %s mode...\n", len(o.functions), mech)
	profiles, err := cluster.Profile(scfg, o.functions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		return 1
	}

	arrivals, err := workload.Arrivals(workload.ArrivalsConfig{
		Process:   proc,
		Horizon:   simtime.FromStd(o.horizon),
		MeanIAT:   simtime.FromStd(o.meanIAT),
		Functions: o.functions,
		Seed:      o.seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		return 2
	}

	ccfg := cluster.DefaultConfig(o.nodes)
	if mech == sched.MechDRAM {
		// A DRAM fleet has no slow tier to keep VMs in; price it honestly.
		ccfg.Hosts = fleet.DRAMOnlyHost().Hosts(o.nodes)
	}
	ccfg.Router = pol
	if o.slo > 0 {
		ccfg.SLO = simtime.FromStd(o.slo)
		ccfg.BurnWindow = simtime.FromStd(o.sloWindow)
	}
	if o.autoscale {
		ccfg.Autoscale.Enabled = true
	}
	var xcol *xray.Collector
	if o.explain || o.explainTop > 0 || o.httpAddr != "" || o.alerts || o.reportOut != "" {
		xcol = xray.NewCollector()
		ccfg.XRay = xcol
	}
	var fr *fleetobs.Recorder
	if o.fleetview || o.decisionLog != "" || o.fleetTrace != "" || o.httpAddr != "" {
		fr = fleetobs.New(fleetobs.Config{})
		ccfg.FleetObs = fr
	}

	cl, err := cluster.New(ccfg, profiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		return 2
	}
	fmt.Printf("cluster: %d nodes (%s router), %s arrivals over %s (mean IAT %s)\n\n",
		o.nodes, pol, proc, o.horizon, o.meanIAT)
	rep, err := cl.Run(arrivals)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		return 1
	}

	printClusterReport(rep, o)

	if xcol != nil && (o.explain || o.explainTop > 0) {
		// Snapshot, not Drain: -http serves the same budgets afterwards.
		budgets := xcol.Snapshot()
		if o.explain {
			agg := xray.Aggregate("cluster", budgets)
			fmt.Printf("\nattribution (%d budgets, mean per record):\n", agg.Records)
			for i := range agg.Functions {
				fmt.Print(xray.ReportWaterfall(&agg.Functions[i], 32))
			}
		}
		if o.explainTop > 0 {
			slowest := append([]*xray.Budget(nil), budgets...)
			sort.SliceStable(slowest, func(i, j int) bool {
				return slowest[i].Recorded() > slowest[j].Recorded()
			})
			if len(slowest) > o.explainTop {
				slowest = slowest[:o.explainTop]
			}
			fmt.Printf("\nslowest %d invocations:\n", len(slowest))
			for _, b := range slowest {
				fmt.Print(xray.Waterfall(b, 32))
			}
		}
	}

	var eng *insight.Engine
	if o.alerts || o.reportOut != "" {
		// Alerting replays the run's completion-ordered record log after the
		// event loop finishes — attaching it changes no routing or scaling
		// decision. Fire edges blame the hottest attribution segment.
		eng = insight.NewEngine(nil,
			insight.BurnRule("latency-slo", "latency",
				simtime.FromStd(o.slo), simtime.FromStd(o.sloWindow), 4*simtime.FromStd(o.sloWindow), 0.10, 0.05),
			insight.BurnRule("cold-start-rate", "cold",
				0, simtime.FromStd(o.sloWindow), 4*simtime.FromStd(o.sloWindow), 0.25, 0.10))
		if xcol != nil {
			eng.SetBlamer(insight.BlameTop(xray.Aggregate("cluster", xcol.Snapshot())))
		}
		for _, c := range rep.Records.Completions() {
			eng.ObserveLatency("latency", c.At, c.Latency)
			var coldLat simtime.Duration
			if c.Cold {
				coldLat = simtime.Millisecond // any value > the 0 objective
			}
			eng.ObserveLatency("cold", c.At, coldLat)
		}
		res := eng.Result("cluster/" + mech.String())
		if o.alerts {
			fmt.Println()
			if err := insight.WriteAlertLog(os.Stdout, []insight.Result{res}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				return 1
			}
		}
		if o.reportOut != "" {
			if err := cliutil.WriteFile(o.reportOut, func(w io.Writer) error {
				return insight.WriteDumpJSON(w, insight.Dump{
					Schema: insight.SchemaVersion,
					Cells:  []insight.Result{res},
				})
			}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				return 1
			}
			fmt.Printf("insight: wrote dump to %s\n", o.reportOut)
		}
	}

	if fr != nil {
		if o.fleetview {
			fmt.Printf("\n%s", fleetobs.RenderFleet(fr.View(), 32))
		}
		if o.decisionLog != "" {
			if err := cliutil.WriteFile(o.decisionLog, fr.WriteDecisionLog); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				return 1
			}
			fmt.Printf("fleet: wrote decision log to %s\n", o.decisionLog)
		}
		if o.fleetTrace != "" {
			if err := cliutil.WriteFile(o.fleetTrace, fr.WriteChromeTrace); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				return 1
			}
			fmt.Printf("fleet: wrote Chrome trace to %s\n", o.fleetTrace)
		}
	}

	if o.httpAddr != "" {
		// Serve the dashboard over the finished run: the node grid renders
		// from the fleet recorder, the /xray panel from the drained budgets.
		rec := obs.New(obs.Config{Interval: simtime.FromStd(o.recordInterval)})
		rec.SetFleet(fr)
		if xcol != nil {
			rec.SetXRay(xcol)
		}
		rec.SetInsight(eng) // /alerts panel; nil engine renders the empty banner
		display := o.httpAddr
		if strings.HasPrefix(display, ":") {
			display = "localhost" + display
		}
		fmt.Printf("\nserving fleet dashboard on http://%s/ (fleet, fleet.json, xray, healthz)\n", display)
		if err := http.ListenAndServe(o.httpAddr, rec.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			return 1
		}
	}
	return 0
}

// printClusterReport renders the per-function table, the per-node table, and
// the fleet rollup.
func printClusterReport(rep *cluster.Report, o clusterOpts) {
	type agg struct {
		n    int
		cold int
		lat  []simtime.Duration
	}
	byFn := make(map[string]*agg, len(o.functions))
	for _, fn := range o.functions {
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
	names := append([]string(nil), o.functions...)
	sort.Strings(names)

	pct := func(ls []simtime.Duration, p float64) simtime.Duration {
		if len(ls) == 0 {
			return 0
		}
		return ls[int(p/100*float64(len(ls)-1))]
	}
	fmt.Printf("%-18s %8s %8s %12s %12s\n", "function", "invokes", "cold %", "p50", "p99")
	for _, fn := range names {
		a := byFn[fn]
		sort.Slice(a.lat, func(i, j int) bool { return a.lat[i] < a.lat[j] })
		coldPct := 0.0
		if a.n > 0 {
			coldPct = float64(a.cold) / float64(a.n) * 100
		}
		fmt.Printf("%-18s %8d %7.1f%% %12s %12s\n", fn, a.n, coldPct,
			pct(a.lat, 50).Std().Round(time.Microsecond).String(),
			pct(a.lat, 99).Std().Round(time.Microsecond).String())
	}

	fmt.Printf("\n%-6s %8s %8s %12s %s\n", "node", "invokes", "cold", "busy", "final")
	for _, ns := range rep.Nodes {
		fmt.Printf("%-6s %8d %8d %12s %v\n", ns.ID, ns.Invocations, ns.ColdStarts,
			ns.Busy.Std().Round(time.Millisecond).String(), ns.Final)
	}

	if len(rep.Router.PerNode) > 0 {
		fmt.Printf("\n%-6s %10s %10s %8s %8s\n", "node", "decisions", "affinity", "spills", "sheds")
		for _, pn := range rep.Router.PerNode {
			fmt.Printf("%-6s %10d %10d %8d %8d\n",
				pn.Node, pn.Decisions, pn.AffinityHits, pn.Spills, pn.Sheds)
		}
	}

	fmt.Printf("\nrouter: %d decisions (%d affinity hits, %d spills, %d sheds); snapshot pulls %d (%s)\n",
		rep.Router.Decisions, rep.Router.AffinityHits, rep.Router.Spills, rep.Router.Sheds,
		rep.Pulls, rep.PullTime.Std().Round(time.Millisecond))
	fmt.Printf("fleet: peak %d nodes, final %d, %d scale events; cold starts %.1f%%; %.1f inv/s over %s\n",
		rep.PeakNodes, rep.FinalNodes, len(rep.ScaleEvents),
		rep.ColdFraction()*100, rep.Throughput(),
		rep.Horizon.Std().Round(time.Millisecond))
	for _, ev := range rep.ScaleEvents {
		fmt.Printf("  scale %-4s %-4s at %-10s util %.2f burn %.2f fleet %d\n",
			ev.Action, ev.Node, ev.At.Std().Round(time.Millisecond), ev.Util, ev.Burn, ev.Fleet)
	}
	if rep.Burn != nil {
		fmt.Printf("\n%s", rep.Burn.Summary())
	}
}

// Command faasim runs the simulated serverless platform end to end: it
// registers Table I functions under a chosen snapshot mode (toss, reap,
// faasnap, dram, or slow), replays a randomized invocation trace through a
// worker pool, and prints per-function statistics including the TOSS
// lifecycle phase and the billed memory cost.
//
// With -fault-rate, a uniform fault plan (fault.UniformPlan, seeded by
// -fault-seed) is injected into every machine: slow-tier and disk read
// stalls, slow-tier outages, snapshot corruption, stale profiles, and
// keep-alive eviction storms. The platform retries and degrades per
// FAULTS.md; a post-replay summary reports per-site firings, degraded
// serves, and retries. Fault injection forces a single worker so the
// deterministic firing sequence — and the output — is reproducible.
//
// With -trace, every invocation is recorded as a virtual-time span tree and
// written as a Chrome trace_event file (load it at https://ui.perfetto.dev)
// or JSON lines; -flame additionally prints an ASCII flame summary of the
// first invocation. Tracing forces a single worker so span order — and the
// output bytes — are deterministic for a given seed.
//
// The flight recorder (-http, -prom, -csv, -heatmap) samples every metric on
// a virtual-time cadence (-record-interval) and tracks per-function tier
// residency. -prom and -csv write byte-deterministic exports; -heatmap
// prints an ASCII tier-residency heatmap; -http serves the live dashboard
// (/metrics, /timeseries.json, /heatmap, /healthz, /debug/pprof/) after the
// replay finishes. The recorder, like tracing, forces a single worker.
//
// With -nodes N, faasim switches to cluster mode (internal/cluster): it
// profiles the functions once through the single-host machinery, generates a
// seeded arrival stream (-arrival poisson|diurnal|flash over -horizon at
// -mean-iat), and replays it through a fleet of N modeled nodes behind the
// chosen -router (rr, least, or affinity) with an optional -autoscale.
// Cluster mode is a serial event loop and excludes the replay-only surfaces
// (-trace, -fault-rate, ...); -slo, -explain, and -http work in both modes.
//
// Cluster runs are fully explainable: -fleetview prints the ASCII fleet
// dashboard (per-node utilization heat, queue depths, tier occupancy, p99);
// -decision-log writes every routing decision (chosen node, reason,
// candidate ranking) and autoscaler action as JSON lines; -fleet-trace
// writes the same trace as a Chrome trace_event file with one track per
// node; -http serves the node grid live at /fleet and /fleet.json. All four
// render from the same virtual-time recorder (internal/fleetobs), so the
// artifacts are byte-deterministic for a given flag set.
//
// With -alerts (requires -slo), the insight layer (internal/insight)
// evaluates multi-window multi-burn-rate alert rules over the run's virtual
// timeline after it completes and prints the deterministic alert log —
// fire/resolve edges, each blamed on the hottest attribution segment when
// the xray collector is on. -report writes the run's insight dump, the
// input `tossctl report` compares across runs; -http additionally serves
// the alert panel at /alerts. Replay mode forces a single worker (the feed
// replays a serial timeline); cluster mode feeds the engine from the
// completion-ordered record log after the event loop finishes, so
// observation changes no simulated decision in either mode.
//
// With -migrate-demo, faasim skips the replay entirely: it profiles the
// first -functions entry through the TOSS pipeline, seeds the N-tier
// migration engine (internal/migrate) from the tiered snapshot, drives a
// drifting hot window for 24 epochs, and renders the ASCII tier timeline —
// one row per epoch, one column per extent bucket, glyph = tier — followed
// by per-tier occupancy and the daemon's move statistics. TIERS.md explains
// the model; the README's "Watching a region migrate" walks the output.
//
// Usage:
//
//	faasim [-mode toss|reap|faasnap|dram|slow] [-requests N] [-workers N]
//	       [-functions a,b,c] [-fault-rate 0.05] [-fault-seed N]
//	       [-trace out.json] [-trace-format chrome|jsonl] [-flame]
//	       [-http :8080] [-prom out.prom] [-csv out.csv] [-heatmap]
//	       [-record-interval 100ms] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	       [-nodes N] [-router rr|least|affinity] [-arrival poisson|diurnal|flash]
//	       [-horizon 60s] [-mean-iat 100ms] [-autoscale]
//	       [-fleetview] [-decision-log out.jsonl] [-fleet-trace out.json]
//	       [-explain] [-explain-top N] [-slo 100ms] [-slo-window 10s]
//	       [-alerts] [-report insight.json] [-migrate-demo]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"toss/internal/cliutil"
	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/insight"
	"toss/internal/obs"
	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/xray"
)

func main() {
	modeFlag := flag.String("mode", "toss", "snapshot mode: toss, reap, faasnap, dram, or slow")
	requests := flag.Int("requests", 400, "number of invocations to replay")
	workers := flag.Int("workers", 4, "invoker pool size")
	fns := flag.String("functions", "pyaes,json_load_dump,compress", "comma-separated Table I functions")
	window := flag.Int("window", 12, "TOSS profiling convergence window")
	seed := flag.Int64("seed", 42, "trace seed")
	traceOut := flag.String("trace", "", "write a virtual-time trace to this file (forces -workers 1)")
	traceFormat := flag.String("trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
	flame := flag.Bool("flame", false, "print an ASCII flame summary of the first traced invocation")
	httpAddr := flag.String("http", "", "serve the live dashboard on this address after the replay (forces -workers 1)")
	promOut := flag.String("prom", "", "write a Prometheus text export to this file (forces -workers 1)")
	csvOut := flag.String("csv", "", "write the sampled series as CSV to this file (forces -workers 1)")
	heatmap := flag.Bool("heatmap", false, "print the ASCII tier-residency heatmap (forces -workers 1)")
	recordInterval := flag.Duration("record-interval", 100*time.Millisecond, "flight-recorder sampling cadence in virtual time")
	faultRate := flag.Float64("fault-rate", 0, "uniform per-site fault rate in [0, 1] (0 disables; forces -workers 1)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-plan seed (with -fault-rate)")
	nodes := flag.Int("nodes", 0, "simulate a fleet of N nodes instead of one host (cluster mode)")
	router := flag.String("router", "affinity", "cluster routing policy: rr, least, or affinity (with -nodes)")
	arrival := flag.String("arrival", "poisson", "cluster arrival process: poisson, diurnal, or flash (with -nodes)")
	horizon := flag.Duration("horizon", 60*time.Second, "cluster arrival horizon in virtual time (with -nodes)")
	meanIAT := flag.Duration("mean-iat", 100*time.Millisecond, "cluster mean inter-arrival time (with -nodes)")
	autoscale := flag.Bool("autoscale", false, "enable the cluster autoscaler (with -nodes; fleet may grow to 4x)")
	fleetview := flag.Bool("fleetview", false, "print the ASCII fleet dashboard after the cluster run (with -nodes)")
	decisionLog := flag.String("decision-log", "", "write the cluster run's routing/scaling decisions as JSON lines to this `file` (with -nodes)")
	fleetTrace := flag.String("fleet-trace", "", "write the cluster run's decision trace as a Chrome trace_event `file`, one track per node (with -nodes)")
	migrateDemo := flag.Bool("migrate-demo", false, "render the N-tier migration timeline for the first -functions entry and exit")
	explain := flag.Bool("explain", false, "print per-function latency attribution waterfalls after the replay")
	explainTop := flag.Int("explain-top", 0, "print full attribution waterfalls for the N slowest invocations")
	slo := flag.Duration("slo", 0, "latency objective; reports SLO burn (violations, burn rate, peak windowed burn) after the replay")
	sloWindow := flag.Duration("slo-window", 10*time.Second, "virtual-time window for the peak burn rate (with -slo)")
	alerts := flag.Bool("alerts", false, "evaluate multi-window SLO alert rules over the run's virtual timeline and print the alert log (with -slo; forces -workers 1)")
	reportOut := flag.String("report", "", "write the run's insight dump (series summaries + alert edges, JSON — tossctl report input) to this `file` (with -slo; forces -workers 1)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the replay")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(1)
		}
	}

	var mode platform.Mode
	switch *modeFlag {
	case "toss":
		mode = platform.ModeTOSS
	case "reap":
		mode = platform.ModeREAP
	case "faasnap":
		mode = platform.ModeFaaSnap
	case "dram":
		mode = platform.ModeDRAM
	case "slow":
		mode = platform.ModeSlow
	default:
		fmt.Fprintf(os.Stderr, "faasim: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}

	// The migration demo is a self-contained pipeline: profile one function,
	// seed the N-tier engine from its snapshot, render the drift timeline.
	if *migrateDemo {
		if *nodes > 0 {
			fmt.Fprintln(os.Stderr, cliutil.MutuallyExclusive("faasim", "-migrate-demo", "-nodes",
				"the migration demo drives one engine, not a fleet"))
			os.Exit(2)
		}
		os.Exit(runMigrateDemo(strings.Split(*fns, ",")[0], *window, *seed))
	}

	// Deterministic output (span order, recorder timeline) needs serialized
	// invocations. Warn once, whichever feature tripped it first.
	workersSetExplicitly := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSetExplicitly = true
		}
	})
	// All flag-interaction diagnostics share one format that names the
	// conflicting flag pair (see the README's flag interaction table);
	// internal/cliutil renders them for faasim and tossctl alike.
	forcer := &cliutil.WorkerForcer{Prog: "faasim", Workers: workers, Err: os.Stderr}
	forceSingleWorker := func(flagName, why string) { forcer.Force(flagName, why) }

	// Alerting needs the -slo objective to define what a violation is, in
	// either mode.
	alerting := *alerts || *reportOut != ""
	if alerting && *slo <= 0 {
		name := "-alerts"
		if !*alerts {
			name = "-report"
		}
		fmt.Fprintln(os.Stderr, cliutil.Requires("faasim", name, "-slo",
			"alert rules burn against the -slo latency objective"))
		os.Exit(2)
	}

	// Cluster mode is a different simulator: a modeled fleet fed by arrival
	// generators, not the microVM replay loop. Its flags make no sense
	// without -nodes, and the replay-only surfaces make no sense with it.
	clusterOnly := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "router", "arrival", "horizon", "mean-iat", "autoscale",
			"fleetview", "decision-log", "fleet-trace":
			clusterOnly["-"+f.Name] = true
		}
	})
	if *nodes <= 0 {
		for _, name := range []string{"-router", "-arrival", "-horizon", "-mean-iat", "-autoscale",
			"-fleetview", "-decision-log", "-fleet-trace"} {
			if clusterOnly[name] {
				fmt.Fprintln(os.Stderr, cliutil.Requires("faasim", name, "-nodes",
					"cluster mode routes through the fleet simulator"))
				os.Exit(2)
			}
		}
	} else {
		// -http is NOT in this list: cluster mode serves the dashboard too
		// (node grid at /fleet, attribution at /xray when -explain is on).
		for _, conflict := range []struct {
			set  bool
			name string
		}{
			{*traceOut != "", "-trace"},
			{*flame, "-flame"},
			{*promOut != "", "-prom"},
			{*csvOut != "", "-csv"},
			{*heatmap, "-heatmap"},
			{*faultRate > 0, "-fault-rate"},
		} {
			if conflict.set {
				fmt.Fprintln(os.Stderr, cliutil.MutuallyExclusive("faasim", "-nodes", conflict.name,
					"the cluster simulator replays a modeled fleet, not the microVM platform"))
				os.Exit(2)
			}
		}
		if workersSetExplicitly && *workers > 1 {
			fmt.Fprintln(os.Stderr, cliutil.ConflictFatal("faasim", "-nodes", *workers,
				"the cluster event loop is serial by construction"))
			os.Exit(2)
		}
		names := strings.Split(*fns, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if _, ok := workload.ByName(names[i]); !ok {
				fmt.Fprintf(os.Stderr, "faasim: unknown function %q (known: %v)\n", name, workload.Names())
				os.Exit(2)
			}
		}
		os.Exit(runCluster(clusterOpts{
			nodes:          *nodes,
			router:         *router,
			arrival:        *arrival,
			horizon:        *horizon,
			meanIAT:        *meanIAT,
			autoscale:      *autoscale,
			mode:           mode,
			window:         *window,
			seed:           *seed,
			functions:      names,
			slo:            *slo,
			sloWindow:      *sloWindow,
			alerts:         *alerts,
			reportOut:      *reportOut,
			explain:        *explain,
			explainTop:     *explainTop,
			fleetview:      *fleetview,
			decisionLog:    *decisionLog,
			fleetTrace:     *fleetTrace,
			httpAddr:       *httpAddr,
			recordInterval: *recordInterval,
		}))
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" || *flame {
		switch *traceFormat {
		case "chrome", "jsonl":
		default:
			fmt.Fprintf(os.Stderr, "faasim: unknown trace format %q (want chrome or jsonl)\n", *traceFormat)
			os.Exit(2)
		}
		tracer = telemetry.NewTracer()
		if *traceOut != "" {
			forceSingleWorker("-trace", "span order is only deterministic serially")
		} else {
			forceSingleWorker("-flame", "span order is only deterministic serially")
		}
	}

	if alerting {
		// The alert feed accumulates the run's virtual timeline in record
		// order, the same serial-only property -slo's burn summary has.
		name := "-alerts"
		if !*alerts {
			name = "-report"
		}
		forceSingleWorker(name, "the alert feed replays a serial timeline")
	}
	recording := *httpAddr != "" || *promOut != "" || *csvOut != "" || *heatmap
	if *httpAddr != "" && workersSetExplicitly && *workers > 1 {
		fmt.Fprintln(os.Stderr, cliutil.ConflictFatal("faasim", "-http", *workers,
			"the dashboard serves a deterministic timeline"))
		os.Exit(2)
	}
	if recording {
		switch {
		case *httpAddr != "":
			forceSingleWorker("-http", "the flight recorder samples a serial timeline")
		case *promOut != "":
			forceSingleWorker("-prom", "the flight recorder samples a serial timeline")
		case *csvOut != "":
			forceSingleWorker("-csv", "the flight recorder samples a serial timeline")
		default:
			forceSingleWorker("-heatmap", "the flight recorder samples a serial timeline")
		}
	}

	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = *window
	if tracer != nil || recording {
		cfg.VM.Metrics = telemetry.NewMetrics()
	}
	var inj *fault.Injector
	if *faultRate > 0 {
		var err error
		if inj, err = fault.New(fault.UniformPlan(*faultRate, *faultSeed)); err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(2)
		}
		cfg.VM.Faults = inj
		// The injector's per-(site,function) sequence counters are shared
		// state: concurrent invocations would race the firing order.
		forceSingleWorker("-fault-rate", "the injector's firing sequence is shared state")
	}
	var xcol *xray.Collector
	if *explain || *explainTop > 0 || recording {
		// Attribution is parallel-safe: no worker forcing here. The recorder
		// gets a collector too so the dashboard can serve the budget panel.
		xcol = xray.NewCollector()
		cfg.VM.XRay = xcol
	}
	p, err := platform.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasim:", err)
		os.Exit(1)
	}
	p.SetTracer(tracer)

	var rec *obs.Recorder
	if recording {
		rec = obs.New(obs.Config{
			Interval: simtime.Duration(recordInterval.Nanoseconds()),
			Metrics:  cfg.VM.Metrics,
		})
		rec.SetXRay(xcol)  // the dashboard's /xray panel and /xray.json
		p.SetRecorder(rec) // before Register: TOSS hooks wire at registration
	}

	names := strings.Split(*fns, ",")
	for _, name := range names {
		spec, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "faasim: unknown function %q (known: %v)\n", name, workload.Names())
			os.Exit(2)
		}
		if err := p.Register(spec, mode); err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(1)
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	reqs := make([]platform.Request, 0, *requests)
	for i := 0; i < *requests; i++ {
		reqs = append(reqs, platform.Request{
			Function: names[rng.Intn(len(names))],
			Level:    workload.Levels[rng.Intn(len(workload.Levels))],
			Seed:     rng.Int63n(1 << 40),
		})
	}

	fmt.Printf("replaying %d requests over %d workers in %s mode...\n\n",
		len(reqs), *workers, mode)
	records := p.Replay(reqs, *workers)

	// Profiles cover the replay itself, not the report/serve tail (which can
	// block forever under -http).
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if err := cliutil.WriteFile(*memprofile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(1)
		}
	}

	var failed int
	for _, r := range records {
		if r.Err != nil {
			failed++
		}
	}

	sort.Strings(names)
	fmt.Printf("%-18s %8s %10s %12s %12s %10s %10s\n",
		"function", "invokes", "phase", "mean exec", "max exec", "cost", "slow %")
	for _, name := range names {
		st, err := p.Stats(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(1)
		}
		phase := "-"
		if mode == platform.ModeTOSS {
			phase = st.Phase.String()
		}
		fmt.Printf("%-18s %8d %10s %12s %12s %10.3f %9.1f%%\n",
			name, st.Invocations, phase,
			st.MeanExec().Std().Round(10e3).String(),
			st.MaxExec.Std().Round(10e3).String(),
			st.NormCost, st.SlowShare*100)
	}

	if inj != nil {
		var degraded, retries int
		for _, r := range records {
			if r.Degraded != "" {
				degraded++
			}
			retries += r.Retries
		}
		counts := inj.Counts()
		fmt.Printf("\nfaults: %d injected (degraded serves %d, retries %d)\n",
			inj.Total(), degraded, retries)
		for _, site := range fault.Sites() {
			if n := counts[site]; n > 0 {
				fmt.Printf("  %-16s %6d\n", site, n)
			}
		}
	}

	if *slo > 0 {
		// Burn tracking runs on the platform's accumulated virtual timeline:
		// each record completes at the running sum of invocation times, in
		// replay record order (deterministic for a given seed and workers).
		burn := xray.NewBurnTracker(
			simtime.FromStd(*slo), simtime.FromStd(*sloWindow))
		var at simtime.Duration
		for _, r := range records {
			if r.Err != nil {
				continue
			}
			at += r.Total()
			burn.Record(at, r.Total())
		}
		fmt.Printf("\n%s", burn.Summary())
	}

	if alerting {
		// The engine walks the same accumulated virtual timeline the burn
		// summary uses; with attribution on, every fire edge carries the
		// hottest segment as its blame.
		objective := simtime.FromStd(*slo)
		fast := simtime.FromStd(*sloWindow)
		eng := insight.NewEngine(nil,
			insight.BurnRule("latency-slo", "latency", objective, fast, 4*fast, 0.10, 0.05))
		if xcol != nil {
			budgets := make([]*xray.Budget, 0, len(records))
			for _, r := range records {
				if r.XRay != nil {
					budgets = append(budgets, r.XRay)
				}
			}
			eng.SetBlamer(insight.BlameTop(xray.Aggregate("replay", budgets)))
		}
		var at simtime.Duration
		for _, r := range records {
			if r.Err != nil {
				continue
			}
			at += r.Total()
			eng.ObserveLatency("latency", at, r.Total())
		}
		res := eng.Result("replay/" + mode.String())
		if *alerts {
			fmt.Println()
			if err := insight.WriteAlertLog(os.Stdout, []insight.Result{res}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				os.Exit(1)
			}
		}
		if *reportOut != "" {
			if err := cliutil.WriteFile(*reportOut, func(w io.Writer) error {
				return insight.WriteDumpJSON(w, insight.Dump{
					Schema: insight.SchemaVersion,
					Cells:  []insight.Result{res},
				})
			}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				os.Exit(1)
			}
			fmt.Printf("insight: wrote dump to %s\n", *reportOut)
		}
		rec.SetInsight(eng) // the dashboard's /alerts panel (nil-safe)
	}

	if *explain || *explainTop > 0 {
		budgets := make([]*xray.Budget, 0, len(records))
		for _, r := range records {
			if r.XRay != nil {
				budgets = append(budgets, r.XRay)
			}
		}
		if *explain {
			rep := xray.Aggregate("replay", budgets)
			fmt.Printf("\nattribution (%d budgets, mean per record):\n", rep.Records)
			for i := range rep.Functions {
				fmt.Print(xray.ReportWaterfall(&rep.Functions[i], 32))
			}
		}
		if *explainTop > 0 {
			slowest := append([]*xray.Budget(nil), budgets...)
			sort.SliceStable(slowest, func(i, j int) bool {
				return slowest[i].Recorded() > slowest[j].Recorded()
			})
			if len(slowest) > *explainTop {
				slowest = slowest[:*explainTop]
			}
			fmt.Printf("\nslowest %d invocations:\n", len(slowest))
			for _, b := range slowest {
				fmt.Print(xray.Waterfall(b, 32))
			}
		}
	}

	if tracer != nil {
		spans := tracer.Spans()
		fmt.Printf("\ntrace: %s\n", telemetry.Summarize(spans))
		if *traceOut != "" {
			if err := cliutil.WriteFile(*traceOut, func(w io.Writer) error {
				if *traceFormat == "jsonl" {
					return telemetry.WriteJSONLines(w, spans)
				}
				return telemetry.WriteChromeTrace(w, spans)
			}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				os.Exit(1)
			}
			fmt.Printf("trace: wrote %d spans to %s (%s)\n", len(spans), *traceOut, *traceFormat)
		}
		if *flame {
			fmt.Printf("\nflame (first invocation):\n%s", telemetry.FlameSummary(spans, 0))
		}
	}

	if rec != nil {
		if *heatmap {
			fmt.Printf("\n%s", obs.RenderHeatmap(rec.Snapshot(), 64))
		}
		if *promOut != "" {
			if err := cliutil.WriteFile(*promOut, func(w io.Writer) error {
				return obs.WritePrometheus(w, rec.Metrics())
			}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				os.Exit(1)
			}
			fmt.Printf("recorder: wrote Prometheus export to %s\n", *promOut)
		}
		if *csvOut != "" {
			if err := cliutil.WriteFile(*csvOut, func(w io.Writer) error {
				return obs.WriteCSV(w, rec.Snapshot())
			}); err != nil {
				fmt.Fprintln(os.Stderr, "faasim:", err)
				os.Exit(1)
			}
			fmt.Printf("recorder: wrote CSV export to %s\n", *csvOut)
		}
	}

	if failed > 0 {
		fmt.Printf("\n%d invocations failed\n", failed)
		os.Exit(1)
	}

	if *httpAddr != "" {
		display := *httpAddr
		if strings.HasPrefix(display, ":") {
			display = "localhost" + display
		}
		fmt.Printf("\nserving dashboard on http://%s/ (metrics, timeseries.json, heatmap, healthz, debug/pprof)\n", display)
		if err := http.ListenAndServe(*httpAddr, rec.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "faasim:", err)
			os.Exit(1)
		}
	}
}

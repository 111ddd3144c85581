// Command tossctl regenerates the paper's tables and figures on the
// simulation substrate.
//
// Usage:
//
//	tossctl [flags] <experiment-id>... | all | list
//
// Experiment ids follow DESIGN.md's per-experiment index: the paper set
// (table1, fig1, fig2, fig3, fig5, table2, fig6, fig7, fig8, fig9, sec6c3a,
// sec6c3b) plus the extension catalog ext1-ext11 (EXPERIMENTS.md) — ext11 is
// the N-tier migration frontier (TIERS.md), scaled down by -cluster-scale
// like ext10.
//
// With -parallel N the experiments (and the heavy per-cell sweeps inside
// them) fan out over a bounded worker pool; results are folded in input
// order, so the rendered tables are byte-identical to a serial run.
// -metrics prints each experiment's telemetry dump after its table; the
// counters and histograms sum the same in any order, so the dump too is
// byte-identical for any -parallel value. -cpuprofile/-memprofile write
// pprof profiles of the run. -faults <plan.json> injects a fault plan
// (FAULTS.md) into every experiment and forces serial execution: the
// injector's firing sequence is shared state.
//
// -xray <out.json> additionally collects every invocation's attribution
// budget (internal/xray), prints each experiment's hottest segments, and
// writes the aggregated per-experiment dump — an input to `tossctl report`,
// which names the segment that regressed between two dumps. Attribution is
// parallel-safe: the dump is byte-identical for any -parallel value.
// Composes with -metrics.
//
// -fleetlog <out.jsonl> collects the cluster experiments' fleet decision
// logs: each swept cell traces its runs (cluster.Config.Trace), and
// internal/fleetobs renders the best sustained run's report — every routing
// decision with its candidate ranking and every autoscaler action — as JSON
// lines tagged with the cell name. Like the attribution dump, the log is
// byte-identical for any -parallel value. Composes with -xray.
//
// -alerts <out.txt> writes the alert-wired experiments' (ext10, ext11)
// virtual-time SLO alert log — fire/resolve edges per cell — and -insight
// <out.json> writes the full insight dump (series summaries + alerts), the
// input to `tossctl report`. Both are byte-identical for any -parallel
// value: alerting replays each cell's recorded outcomes after the run, so
// attaching it changes no decision (OBSERVABILITY.md).
//
// `tossctl report [-fail] [-html out] old new [old2 new2 ...]` is the
// cross-run regression sentinel: it compares pairs of insight dumps, xray
// attribution dumps, or scripts/benchjson reports (formats auto-detected
// per file; a pair of two kinds is an error), prints a markdown verdict
// naming each regressed (cell, metric) pair, and under -fail exits non-zero
// when anything regressed or a pair compared nothing — the CI gate form.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"toss/internal/cliutil"
	"toss/internal/costmodel"
	"toss/internal/experiments"
	"toss/internal/fault"
	"toss/internal/insight"
	"toss/internal/par"
	"toss/internal/telemetry"
	"toss/internal/xray"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		return runReport(os.Args[2:])
	}
	iters := flag.Int("iters", 5, "measurement repetitions per data point (paper uses 10)")
	window := flag.Int("window", 12, "profiling convergence window (paper uses 100)")
	seed := flag.Int64("seed", 1, "base seed for all deterministic randomness")
	ratio := flag.Float64("ratio", 2.5, "fast:slow tier cost ratio")
	threshold := flag.Float64("threshold", 0, "slowdown threshold (0 disables; e.g. 0.1 = 10%)")
	timing := flag.Bool("timing", false, "print wall-clock timing per experiment")
	format := flag.String("format", "table", "output format: table, csv, or json")
	metrics := flag.Bool("metrics", false, "collect telemetry metrics and dump them after each experiment")
	faults := flag.String("faults", "", "JSON fault plan injected into every experiment (see FAULTS.md; forces -parallel 1)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker pool size (1 = serial; output is identical either way)")
	clusterScale := flag.Float64("cluster-scale", 1, "scale for the long-horizon experiments: ext10's day (1 = full ~1.26M-invocation day; CI smoke uses 0.02) and ext11's migration epochs (CI smoke uses 0.25)")
	xrayOut := flag.String("xray", "", "write per-experiment attribution budgets (JSON) to this `file`; compare runs with tossctl report")
	fleetLog := flag.String("fleetlog", "", "write the cluster experiments' fleet decision logs (JSON lines, one event per routing/scaling decision) to this `file`")
	alerts := flag.String("alerts", "", "write the alert-wired experiments' (ext10, ext11) SLO alert log to this `file`")
	insightOut := flag.String("insight", "", "write the insight dump (series + alerts per cell, JSON) to this `file`; compare runs with tossctl report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tossctl [flags] <experiment>... | all | list\n\nexperiments: %v\n\nflags:\n", experiments.IDs())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		return 2
	}
	if *iters < 1 {
		fmt.Fprintln(os.Stderr, cliutil.OutOfRange("tossctl", "-iters", "at least 1", *iters))
		return 2
	}
	cost, err := costmodel.WithRatio(*ratio)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tossctl: -ratio %v: %v\n", *ratio, err)
		return 2
	}

	suite := experiments.NewSuite()
	suite.Iterations = *iters
	suite.Core.ConvergenceWindow = *window
	suite.BaseSeed = *seed
	suite.Core.SlowdownThreshold = *threshold
	suite.Workers = *parallel
	suite.ClusterScale = *clusterScale
	suite.Core.Cost = cost
	if err := checkSuite(suite); err != nil {
		fmt.Fprintln(os.Stderr, "tossctl:", err)
		return 2
	}

	ids := flag.Args()
	if len(ids) == 1 {
		switch ids[0] {
		case "list":
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
			return 0
		case "all":
			ids = experiments.IDs()
		}
	}

	// Reject unknown experiment ids before running anything.
	for _, id := range ids {
		if !experiments.Known(id) {
			fmt.Fprintf(os.Stderr, "tossctl: unknown experiment %q\n\n", id)
			flag.Usage()
			return 2
		}
	}

	// Validate the format before spending minutes computing tables.
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "tossctl: unknown format %q\n", *format)
		return 2
	}
	if *faults != "" {
		plan, err := fault.LoadPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tossctl:", err)
			return 2
		}
		inj, err := fault.New(plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tossctl:", err)
			return 2
		}
		// A suite-level injector's sequence counters are shared state, so
		// Suite.Pool runs serially while it is attached.
		suite.Core.VM.Faults = inj
	}

	// Every usage check is done: profile the run itself.
	prof, err := cliutil.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tossctl:", err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "tossctl:", err)
		}
	}()

	var met *telemetry.Metrics
	if *metrics {
		met = telemetry.NewMetrics()
		suite.Core.VM.Metrics = met
	}
	render := func(t *experiments.Table) (string, error) {
		switch *format {
		case "csv":
			return t.CSV()
		case "json":
			return t.JSON()
		default:
			return t.String(), nil
		}
	}

	if *fleetLog != "" {
		suite.FleetSink = par.NewSink[string]()
	}
	if *alerts != "" || *insightOut != "" {
		suite.InsightSink = par.NewSink[insight.Result]()
	}
	finish := func() int {
		if code := writeFleetLog(suite, *fleetLog); code != 0 {
			return code
		}
		return writeInsight(suite, *alerts, *insightOut)
	}

	if *xrayOut != "" || met != nil {
		if code := runXRay(suite, ids, *xrayOut, met, *timing, render); code != 0 {
			return code
		}
		return finish()
	}

	start := time.Now()
	timed, err := suite.RunTimed(ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tossctl: %v\n", err)
		return 1
	}
	for _, r := range timed {
		out, err := render(r.Table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tossctl: %s: render: %v\n", r.ID, err)
			return 1
		}
		fmt.Println(out)
		if *timing {
			fmt.Printf("[%s took %v]\n\n", r.ID, r.Elapsed.Round(time.Millisecond))
		}
	}
	if *timing {
		fmt.Printf("[%d experiments took %v over %d workers]\n",
			len(timed), time.Since(start).Round(time.Millisecond), suite.Pool().Workers())
	}
	return finish()
}

// checkSuite rejects suite settings no run can mean, before any work: a
// core config that fails validation (-window, -threshold) and a
// -cluster-scale that is not a finite positive number or that scales
// ext10's day to no horizon a run can have.
func checkSuite(s *experiments.Suite) error {
	if err := s.Core.Validate(); err != nil {
		return err
	}
	if !(s.ClusterScale > 0) || math.IsInf(s.ClusterScale, 1) {
		return fmt.Errorf("-cluster-scale must be a finite positive number (got %v)", s.ClusterScale)
	}
	if _, err := experiments.Ext10Horizon(s.ClusterScale); err != nil {
		return fmt.Errorf("-cluster-scale %v: %w", s.ClusterScale, err)
	}
	return nil
}

// writeInsight writes the suite's folded alert log and/or insight dump when
// -alerts / -insight asked for them. Both are byte-identical for any
// -parallel value: the sink sorts cells by name and each cell's alert feed
// replays a deterministic record stream.
func writeInsight(suite *experiments.Suite, alertsPath, dumpPath string) int {
	if suite.InsightSink == nil {
		return 0
	}
	cells := suite.InsightSink.Sorted()
	if alertsPath != "" {
		if err := cliutil.WriteFile(alertsPath, func(w io.Writer) error {
			return insight.WriteAlertLog(w, cells)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tossctl:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tossctl: wrote alert log (%d cells) to %s\n", len(cells), alertsPath)
	}
	if dumpPath != "" {
		dump := insight.Dump{Schema: insight.SchemaVersion, Cells: cells}
		if err := cliutil.WriteFile(dumpPath, func(w io.Writer) error {
			return insight.WriteDumpJSON(w, dump)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "tossctl:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tossctl: wrote insight dump (%d cells) to %s\n", len(cells), dumpPath)
	}
	return 0
}

// writeFleetLog writes the suite's folded fleet decision log when -fleetlog
// asked for one. The log is byte-identical for any -parallel value: the sink
// sorts cells by name and each cell's trace comes from a deterministic
// event-loop run.
func writeFleetLog(suite *experiments.Suite, path string) int {
	if path == "" {
		return 0
	}
	log := strings.Join(suite.FleetSink.Sorted(), "")
	if err := cliutil.WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, log)
		return err
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tossctl:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "tossctl: wrote fleet decision log (%d cells, %d bytes) to %s\n",
		suite.FleetSink.Len(), len(log), path)
	return 0
}

// runXRay runs the experiments one id at a time, so each gets its own
// attribution report (when path is set) and metrics dump (when met is set).
// Inner per-experiment parallelism is preserved: the collector and the
// registry are parallel-safe, attribution aggregates order-independently,
// and counters and histograms sum commutatively. After each table it prints
// the experiment's hottest segments, then its metrics dump, resetting the
// registry in place so instrument handles cached inside the suite stay
// live. It writes the aggregated attribution dump to path.
func runXRay(suite *experiments.Suite, ids []string, path string, met *telemetry.Metrics, timing bool, render func(*experiments.Table) (string, error)) int {
	var col *xray.Collector
	if path != "" {
		col = xray.NewCollector()
		suite.Core.VM.XRay = col
	}
	doc := xray.RunDoc{Schema: xray.SchemaVersion}
	start := time.Now()
	for _, id := range ids {
		timed, err := suite.RunTimed([]string{id})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tossctl: %v\n", err)
			return 1
		}
		r := timed[0]
		out, err := render(r.Table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tossctl: %s: render: %v\n", r.ID, err)
			return 1
		}
		fmt.Println(out)
		if col != nil {
			rep := xray.Aggregate(id, col.Drain())
			doc.Reports = append(doc.Reports, rep)
			if hot := rep.TopSegments(5); len(hot) > 0 {
				fmt.Printf("xray %s: %d budgets, hottest segments:\n", id, rep.Records)
				for _, h := range hot {
					fmt.Printf("  %-28s %-22s %12v %5.1f%%\n", h.Label, h.Segment, h.Total, h.Share*100)
				}
				fmt.Println()
			}
		}
		if timing {
			fmt.Printf("[%s took %v]\n\n", r.ID, r.Elapsed.Round(time.Millisecond))
		}
		if met != nil {
			fmt.Printf("=== metrics: %s ===\n", id)
			fmt.Print(met.Dump())
			fmt.Println()
			met.Reset()
		}
	}
	if timing {
		fmt.Printf("[%d experiments took %v over %d workers]\n",
			len(ids), time.Since(start).Round(time.Millisecond), suite.Pool().Workers())
	}
	if col == nil {
		return 0
	}
	if err := cliutil.WriteFile(path, func(w io.Writer) error {
		return xray.WriteJSON(w, doc)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tossctl:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "tossctl: wrote attribution dump for %d experiments to %s\n", len(doc.Reports), path)
	return 0
}

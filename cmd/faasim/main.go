// Command faasim runs the simulated serverless platform end to end: it
// registers Table I functions under a chosen snapshot mode (toss, reap,
// faasnap, dram, or slow), replays a randomized invocation trace in request
// order, and prints per-function statistics including the TOSS lifecycle
// phase and the billed memory cost. -workers is the modeled concurrency:
// every invocation is charged the disk and slow-tier contention of that
// many invocations in flight, so two runs with the same flags print, and
// write, the same bytes.
//
// With -fault-rate, a uniform fault plan (fault.UniformPlan, seeded by
// -fault-seed) is injected into every machine: slow-tier and disk read
// stalls, slow-tier outages, snapshot corruption, stale profiles, and
// keep-alive eviction storms. The platform retries and degrades per
// FAULTS.md; a post-replay summary reports per-site firings, degraded
// serves, and retries.
//
// With -trace, every invocation is recorded as a virtual-time span tree and
// written as a Chrome trace_event file (load it at https://ui.perfetto.dev)
// or JSON lines; -flame additionally prints an ASCII flame summary of the
// first invocation.
//
// The flight recorder (-http, -prom, -csv, -heatmap) samples every metric on
// a virtual-time cadence (-record-interval) and tracks per-function tier
// residency. -prom and -csv write byte-deterministic exports; -heatmap
// prints an ASCII tier-residency heatmap; -http serves the dashboard
// (/metrics, /timeseries.json, /heatmap, /healthz, /debug/pprof/) over the
// finished run. Both modes build the dashboard once, after the run, from
// what the run produced; so every request for a page returns the same bytes.
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
// node; -http serves the node grid at /fleet and /fleet.json. All four
// are rendered (internal/fleetobs) from the finished run's report, whose
// virtual-time decision trace the cluster records, so the artifacts are
// byte-deterministic for a given flag set.
//
// After the run, both modes print the `slo …` line — violations, the
// run-long burn rate and the peak -slo-window burn — from insight's
// latency-slo burn rule: replay mode with -slo, cluster mode always, against
// -slo or the fleet's 250ms default objective.
//
// With -alerts (requires -slo), the insight layer (internal/insight)
// evaluates multi-window multi-burn-rate alert rules over the run's virtual
// timeline after it completes and prints the deterministic alert log —
// fire/resolve edges, each blamed on the hottest attribution segment when
// the xray collector is on. -report writes the run's insight dump, the
// input `tossctl report` compares across runs; -http additionally serves
// the alert panel at /alerts. Replay mode feeds the engine the records in
// request order; cluster mode feeds it the completion-ordered record log
// after the event loop finishes, so observation changes no simulated
// decision in either mode.
//
// With -migrate-demo, faasim skips the replay entirely: it profiles the
// first -functions entry through the TOSS pipeline, seeds the N-tier
// migration engine (internal/migrate) from the tiered snapshot, drives a
// drifting hot window for 24 epochs, and renders the ASCII tier timeline —
// one row per epoch, one column per extent bucket, glyph = tier — followed
// by per-tier occupancy and the daemon's move statistics. TIERS.md explains
// the model; the README's "Watching a region migrate" walks the output. The
// demo reads no flag but those three and the profile pair; any other given
// with it is a usage error.
//
// -cpuprofile and -memprofile profile the run in every mode, and stop before
// the dashboard starts serving. The heap profile is written once the run has
// returned, as in tossctl: its allocation views (alloc_space, alloc_objects)
// cover the whole run, and its in-use views hold only what outlives it.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"toss/internal/cliutil"
	"toss/internal/core"
	"toss/internal/platform"
	"toss/internal/workload"
)

// options is faasim's parsed command line; every mode reads it.
type options struct {
	mode   platform.Mode
	fns    []*workload.Spec
	window int
	seed   int64

	// Replay mode: one simulated host.
	requests, workers     int
	traceOut, traceFormat string
	flame                 bool
	promOut, csvOut       string
	heatmap               bool
	recordInterval        time.Duration
	faultRate             float64
	faultSeed             int64

	// Cluster mode (-nodes > 0): a modeled fleet.
	nodes                   int
	router, arrival         string
	horizon, meanIAT        time.Duration
	autoscale, fleetview    bool
	decisionLog, fleetTrace string

	migrateDemo bool

	// Both modes: the post-run path and the profiles.
	explain                bool
	explainTop             int
	slo, sloWindow         time.Duration
	alerts                 bool
	reportOut, httpAddr    string
	cpuprofile, memprofile string
}

// explaining reports whether the run prints attribution waterfalls.
func (o *options) explaining() bool { return o.explain || o.explainTop > 0 }

// alerting reports whether the run evaluates SLO alert rules.
func (o *options) alerting() bool { return o.alerts || o.reportOut != "" }

// coreConfig returns the paper's TOSS configuration with the -window
// convergence window, the one core knob faasim's flags set.
func (o *options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = o.window
	return cfg
}

// names returns the -functions names in flag order.
func (o *options) names() []string {
	names := make([]string, len(o.fns))
	for i, spec := range o.fns {
		names[i] = spec.Name
	}
	return names
}

// usageError is the complete diagnostic line for flags no run can mean:
// faasim exits 2 on it, and 1 on any other error.
type usageError string

func (e usageError) Error() string { return string(e) }

// usagef formats a usageError in faasim's diagnostic form.
func usagef(format string, a ...any) error {
	return usageError(fmt.Sprintf("faasim: "+format, a...))
}

// errFailed ends a replay whose invocations failed: the replay has already
// printed the count, so there is no diagnostic line.
var errFailed = errors.New("invocations failed")

// diagnose returns err's stderr line ("" when there is none) and exit status.
func diagnose(err error) (string, int) {
	var u usageError
	switch {
	case errors.As(err, &u):
		return string(u), 2
	case errors.Is(err, errFailed):
		return "", 1
	}
	return "faasim: " + err.Error(), 1
}

// parseOptions parses args into fs and validates them. All flag-interaction
// diagnostics share one format that names the conflicting flag pair (see the
// README's flag interaction table); internal/cliutil renders them for faasim
// and tossctl alike.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	modeName := fs.String("mode", "toss", "snapshot mode: toss, reap, faasnap, dram, or slow")
	fs.IntVar(&o.requests, "requests", 400, "number of invocations to replay")
	fs.IntVar(&o.workers, "workers", 4, "modeled concurrency: invocations in flight sharing the disk and slow tier (>= 1)")
	fns := fs.String("functions", "pyaes,json_load_dump,compress", "comma-separated Table I functions")
	fs.IntVar(&o.window, "window", 12, "TOSS profiling convergence window")
	fs.Int64Var(&o.seed, "seed", 42, "trace seed")
	fs.StringVar(&o.traceOut, "trace", "", "write a virtual-time trace to this file")
	fs.StringVar(&o.traceFormat, "trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
	fs.BoolVar(&o.flame, "flame", false, "print an ASCII flame summary of the first traced invocation")
	fs.StringVar(&o.httpAddr, "http", "", "serve the dashboard on this address after the run")
	fs.StringVar(&o.promOut, "prom", "", "write a Prometheus text export to this file")
	fs.StringVar(&o.csvOut, "csv", "", "write the sampled series as CSV to this file")
	fs.BoolVar(&o.heatmap, "heatmap", false, "print the ASCII tier-residency heatmap")
	fs.DurationVar(&o.recordInterval, "record-interval", 100*time.Millisecond, "flight-recorder sampling cadence (> 0) in virtual time")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "uniform per-site fault rate in [0, 1] (0 disables)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-plan seed (with -fault-rate)")
	fs.IntVar(&o.nodes, "nodes", 0, "simulate a fleet of N nodes instead of one host (cluster mode)")
	fs.StringVar(&o.router, "router", "affinity", "cluster routing policy: rr, least, or affinity (with -nodes)")
	fs.StringVar(&o.arrival, "arrival", "poisson", "cluster arrival process: poisson, diurnal, or flash (with -nodes)")
	fs.DurationVar(&o.horizon, "horizon", 60*time.Second, "cluster arrival horizon in virtual time (with -nodes)")
	fs.DurationVar(&o.meanIAT, "mean-iat", 100*time.Millisecond, "cluster mean inter-arrival time (with -nodes)")
	fs.BoolVar(&o.autoscale, "autoscale", false, "enable the cluster autoscaler (with -nodes; fleet may grow to 4x)")
	fs.BoolVar(&o.fleetview, "fleetview", false, "print the ASCII fleet dashboard after the cluster run (with -nodes)")
	fs.StringVar(&o.decisionLog, "decision-log", "", "write the cluster run's routing/scaling decisions as JSON lines to this `file` (with -nodes)")
	fs.StringVar(&o.fleetTrace, "fleet-trace", "", "write the cluster run's decision trace as a Chrome trace_event `file`, one track per node (with -nodes)")
	fs.BoolVar(&o.migrateDemo, "migrate-demo", false, "render the N-tier migration timeline for the first -functions entry and exit")
	fs.BoolVar(&o.explain, "explain", false, "print per-function latency attribution waterfalls after the replay")
	fs.IntVar(&o.explainTop, "explain-top", 0, "print full attribution waterfalls for the N slowest invocations")
	fs.DurationVar(&o.slo, "slo", 0, "latency objective; reports SLO burn (violations, burn rate, peak windowed burn) after the run (cluster mode reports it against 250ms without -slo)")
	fs.DurationVar(&o.sloWindow, "slo-window", 10*time.Second, "virtual-time window (> 0) for the peak burn rate and the alert rules' fast window")
	fs.BoolVar(&o.alerts, "alerts", false, "evaluate multi-window SLO alert rules over the run's virtual timeline and print the alert log (with -slo)")
	fs.StringVar(&o.reportOut, "report", "", "write the run's insight dump (series summaries + alert edges, JSON — tossctl report input) to this `file` (with -slo)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file when the run ends (its alloc_space view covers the run)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// Reject values no run can mean before doing any work.
	if o.requests < 0 {
		return nil, usageError(cliutil.OutOfRange("faasim", "-requests", "at least 0", o.requests))
	}
	if o.workers < 1 {
		return nil, usageError(cliutil.OutOfRange("faasim", "-workers", "at least 1", o.workers))
	}
	if o.sloWindow <= 0 {
		return nil, usageError(cliutil.OutOfRange("faasim", "-slo-window", "positive", o.sloWindow))
	}
	if o.recordInterval <= 0 {
		return nil, usageError(cliutil.OutOfRange("faasim", "-record-interval", "positive", o.recordInterval))
	}
	if err := o.coreConfig().Validate(); err != nil {
		return nil, usagef("%v", err)
	}
	switch *modeName {
	case "toss":
		o.mode = platform.ModeTOSS
	case "reap":
		o.mode = platform.ModeREAP
	case "faasnap":
		o.mode = platform.ModeFaaSnap
	case "dram":
		o.mode = platform.ModeDRAM
	case "slow":
		o.mode = platform.ModeSlow
	default:
		return nil, usagef("unknown mode %q", *modeName)
	}

	if o.migrateDemo {
		if err := checkDemoFlags(fs); err != nil {
			return nil, err
		}
	} else if err := o.checkModeFlags(fs); err != nil {
		return nil, err
	}

	for _, name := range strings.Split(*fns, ",") {
		spec, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, usagef("unknown function %q (known: %v)", name, workload.Names())
		}
		o.fns = append(o.fns, spec)
	}
	return o, nil
}

// checkDemoFlags rejects every flag the migration demo does not read. The
// demo is a self-contained pipeline: besides the profiles it reads only
// -functions, -window and -seed. The first other flag given, in flag-name
// order, is named.
func checkDemoFlags(fs *flag.FlagSet) error {
	var offender string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "migrate-demo", "functions", "window", "seed", "cpuprofile", "memprofile":
		default:
			if offender == "" {
				offender = "-" + f.Name
			}
		}
	})
	switch offender {
	case "":
		return nil
	case "-nodes":
		return usageError(cliutil.MutuallyExclusive("faasim", "-migrate-demo", offender,
			"the migration demo drives one engine, not a fleet"))
	}
	return usageError(cliutil.MutuallyExclusive("faasim", "-migrate-demo", offender,
		"the migration demo reads only -functions, -window and -seed"))
}

// checkModeFlags rejects flags the selected mode cannot honor. Alerting needs
// the -slo objective to define what a violation is, in either mode. Cluster
// mode is a different simulator: a modeled fleet fed by arrival generators,
// not the microVM replay loop. Its flags make no sense without -nodes, and
// the replay-only surfaces make no sense with it.
func (o *options) checkModeFlags(fs *flag.FlagSet) error {
	if o.alerting() && o.slo <= 0 {
		name := "-alerts"
		if !o.alerts {
			name = "-report"
		}
		return usageError(cliutil.Requires("faasim", name, "-slo",
			"alert rules burn against the -slo latency objective"))
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given["-"+f.Name] = true })
	if o.nodes > 0 {
		// -http is NOT in this list: cluster mode serves the dashboard too
		// (node grid at /fleet, attribution at /xray).
		for _, conflict := range []struct {
			set  bool
			name string
		}{
			{o.traceOut != "", "-trace"},
			{o.flame, "-flame"},
			{o.promOut != "", "-prom"},
			{o.csvOut != "", "-csv"},
			{o.heatmap, "-heatmap"},
			{given["-record-interval"], "-record-interval"},
			{o.faultRate > 0, "-fault-rate"},
			{given["-workers"] && o.workers > 1, "-workers"},
		} {
			if conflict.set {
				return usageError(cliutil.MutuallyExclusive("faasim", "-nodes", conflict.name,
					"the cluster simulator replays a modeled fleet, not the microVM platform"))
			}
		}
		return nil
	}
	for _, name := range []string{"-router", "-arrival", "-horizon", "-mean-iat", "-autoscale",
		"-fleetview", "-decision-log", "-fleet-trace"} {
		if given[name] {
			return usageError(cliutil.Requires("faasim", name, "-nodes",
				"cluster mode routes through the fleet simulator"))
		}
	}
	if (o.traceOut != "" || o.flame) && o.traceFormat != "chrome" && o.traceFormat != "jsonl" {
		return usagef("unknown trace format %q (want chrome or jsonl)", o.traceFormat)
	}
	return nil
}

// run executes the mode the options select, printing to w, under the
// -cpuprofile/-memprofile pair, and returns the dashboard -http serves over
// the finished run (nil without -http).
func (o *options) run(w io.Writer) (*dashboard, error) {
	prof, err := cliutil.StartProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return nil, err
	}
	var dash *dashboard
	switch {
	case o.migrateDemo:
		err = runMigrateDemo(o, w)
	case o.nodes > 0:
		dash, err = runCluster(o, w)
	default:
		dash, err = runReplay(o, w)
	}
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	return dash, err
}

func main() {
	o, err := parseOptions(flag.CommandLine, os.Args[1:])
	var dash *dashboard
	if err == nil {
		dash, err = o.run(os.Stdout)
	}
	if err == nil && dash != nil {
		err = dash.serve(os.Stdout, o.httpAddr) // returns only on failure
	}
	if err != nil {
		line, code := diagnose(err)
		if line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
		os.Exit(code)
	}
}

package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"toss/internal/fault"
	"toss/internal/insight"
	"toss/internal/obs"
	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/xray"
)

// runReplay registers the functions on one simulated host under -mode,
// replays a seeded request trace through it in request order, and prints the
// per-function table followed by every report the flags ask for.
func runReplay(o *options, w io.Writer) (*dashboard, error) {
	var tracer *telemetry.Tracer
	if o.traceOut != "" || o.flame {
		tracer = telemetry.NewTracer()
	}

	recording := o.httpAddr != "" || o.promOut != "" || o.csvOut != "" || o.heatmap

	cfg := o.coreConfig()
	if tracer != nil || recording {
		cfg.VM.Metrics = telemetry.NewMetrics()
	}
	var inj *fault.Injector
	if o.faultRate > 0 {
		var err error
		if inj, err = fault.New(fault.UniformPlan(o.faultRate, o.faultSeed)); err != nil {
			return nil, usagef("%v", err)
		}
		cfg.VM.Faults = inj
	}
	var xcol *xray.Collector
	if o.explaining() || recording {
		// The recorder's dashboard gets a collector too, for its budget panel.
		xcol = xray.NewCollector()
		cfg.VM.XRay = xcol
	}
	var rec *obs.Recorder
	if recording {
		rec = obs.New(obs.Config{
			Interval: simtime.FromStd(o.recordInterval),
			Metrics:  cfg.VM.Metrics,
		})
		cfg.VM.Recorder = rec
	}
	p, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	p.SetTracer(tracer)

	for _, spec := range o.fns {
		if err := p.Register(spec, o.mode); err != nil {
			return nil, err
		}
	}
	names := o.names()

	rng := rand.New(rand.NewSource(o.seed))
	reqs := make([]platform.Request, 0, o.requests)
	for i := 0; i < o.requests; i++ {
		reqs = append(reqs, platform.Request{
			Function: names[rng.Intn(len(names))],
			Level:    workload.Levels[rng.Intn(len(workload.Levels))],
			Seed:     rng.Int63n(1 << 40),
		})
	}

	fmt.Fprintf(w, "replaying %d requests over %d workers in %s mode...\n\n",
		len(reqs), o.workers, o.mode)
	records := p.Replay(reqs, o.workers)

	var failed int
	budgets := make([]*xray.Budget, 0, len(records))
	for _, r := range records {
		if r.Err != nil {
			failed++
		}
		if r.XRay != nil {
			budgets = append(budgets, r.XRay)
		}
	}

	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %8s %10s %12s %12s %10s %10s\n",
		"function", "invokes", "phase", "mean exec", "max exec", "cost", "slow %")
	for _, name := range names {
		st, err := p.Stats(name)
		if err != nil {
			return nil, err
		}
		phase := "-"
		if o.mode == platform.ModeTOSS {
			phase = st.Phase.String()
		}
		fmt.Fprintf(w, "%-18s %8d %10s %12s %12s %10.3f %9.1f%%\n",
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
		fmt.Fprintf(w, "\nfaults: %d injected (degraded serves %d, retries %d)\n",
			inj.Total(), degraded, retries)
		for _, site := range fault.Sites() {
			if n := counts[site]; n > 0 {
				fmt.Fprintf(w, "  %-16s %6d\n", site, n)
			}
		}
	}

	// The SLO report and alerting run on the platform's accumulated virtual
	// timeline: each record completes at the running sum of invocation
	// times, in request order. With attribution on, every fire edge carries
	// the hottest segment as its blame. Both require -slo.
	var alerts *insight.Engine
	if o.slo > 0 {
		eng := insight.NewEngine(latencyRule(o, simtime.FromStd(o.slo)))
		if o.alerting() {
			alerts = eng
			if xcol != nil {
				alerts.SetBlamer(insight.BlameTop(xray.Aggregate("replay", budgets)))
			}
		}
		var at simtime.Duration
		for _, r := range records {
			if r.Err != nil {
				continue
			}
			at += r.Total()
			eng.ObserveLatency("latency", at, r.Total())
		}
		fmt.Fprintf(w, "\n%s\n", eng.Burn("latency-slo"))
	}
	if alerts != nil {
		if err := writeInsight(w, o, alerts, "replay/"+o.mode.String()); err != nil {
			return nil, err
		}
	}

	explain(w, o, budgets)

	if tracer != nil {
		spans := tracer.Spans()
		fmt.Fprintf(w, "\ntrace: %s\n", telemetry.Summarize(spans))
		done := fmt.Sprintf("trace: wrote %d spans to %s (%s)", len(spans), o.traceOut, o.traceFormat)
		if err := writeExport(w, o.traceOut, done, func(f io.Writer) error {
			if o.traceFormat == "jsonl" {
				return telemetry.WriteJSONLines(f, spans)
			}
			return telemetry.WriteChromeTrace(f, spans)
		}); err != nil {
			return nil, err
		}
		if o.flame {
			fmt.Fprintf(w, "\nflame (first invocation):\n%s", telemetry.FlameSummary(spans, 0))
		}
	}

	if o.heatmap {
		fmt.Fprintf(w, "\n%s", obs.RenderHeatmap(rec.Snapshot(), 64))
	}
	if err := writeExport(w, o.promOut, "recorder: wrote Prometheus export to "+o.promOut, func(f io.Writer) error {
		return obs.WritePrometheus(f, rec.Metrics())
	}); err != nil {
		return nil, err
	}
	if err := writeExport(w, o.csvOut, "recorder: wrote CSV export to "+o.csvOut, func(f io.Writer) error {
		return obs.WriteCSV(f, rec.Snapshot())
	}); err != nil {
		return nil, err
	}

	if failed > 0 {
		fmt.Fprintf(w, "\n%d invocations failed\n", failed)
		return nil, errFailed
	}
	if o.httpAddr == "" {
		return nil, nil
	}
	return newDashboard("dashboard", rec, xcol, nil, alerts), nil
}

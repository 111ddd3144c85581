// Package platform assembles the pieces into a serverless platform: a
// function registry, a trace replayer, and per-function billing statistics
// based on the paper's memory cost formula, over one snapshot mechanism per
// function (Function: TOSS, REAP, FaaSnap, all-DRAM lazy restore or
// all-slow). Function is the repository's only mechanism layer, fault policy
// included: the discrete-event host simulator (internal/sched) and the
// cluster profiler serve through it too.
//
// REAP (Ustiugov et al., ASPLOS'21), the snapshot-based state of the art
// the paper compares against (§VI-B), runs every mode's capture-then-restore
// cycle with a working set beside the snapshot:
//
//  1. The first invocation runs in a fresh microVM. REAP records, via
//     userfaultfd, the set of pages touched during that invocation (the
//     working set) and captures a snapshot plus a consolidated working-set
//     file.
//  2. Every subsequent invocation restores the snapshot, eagerly prefetches
//     the recorded working set into memory with one sequential read, and
//     populates the corresponding page-table entries. Pages outside the
//     recorded WS demand-fault from disk.
//
// The paper's two REAP pathologies fall straight out of this design: the
// setup time grows with the recorded working set (Fig. 7), and an execution
// input that diverges from the snapshot input faults on every page the
// recorded WS missed (Fig. 3). FaaSnap (Ao et al., EuroSys'22) runs the same
// lifecycle with the working set recorded by mincore(), which also reports
// the pages host readahead brought in around every fault, so it prefetches
// more than the function touched (§III-C).
//
// Concurrency is a model input, not an observation: Replay serves a trace
// in request order and charges every invocation the memory/disk contention
// of the concurrency level it is given, so all timing is virtual and every
// output is a function of the trace and that level alone.
package platform

import (
	"fmt"
	"sync"

	"toss/internal/core"
	"toss/internal/mem"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/xray"
)

// Mode selects the snapshot mechanism serving a function.
type Mode int

const (
	// ModeTOSS serves from TOSS tiered snapshots (after profiling).
	ModeTOSS Mode = iota
	// ModeREAP serves with REAP working-set prefetching.
	ModeREAP
	// ModeDRAM serves with Firecracker's default lazy restore, all-DRAM.
	ModeDRAM
	// ModeFaaSnap serves with FaaSnap's mincore-inflated working sets.
	ModeFaaSnap
	// ModeSlow serves every resident page from the slow tier (an all-slow
	// tiered snapshot) — the other bookend baseline next to ModeDRAM.
	ModeSlow
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTOSS:
		return "toss"
	case ModeREAP:
		return "reap"
	case ModeDRAM:
		return "dram"
	case ModeFaaSnap:
		return "faasnap"
	case ModeSlow:
		return "slow"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Platform hosts registered functions.
type Platform struct {
	cfg core.Config

	mu  sync.RWMutex
	fns map[string]*functionState

	// tracer, when set, records every invocation as a root span on its own
	// track (nil disables tracing at near-zero cost).
	tracer *telemetry.Tracer
}

// SetTracer attaches a tracer; each invocation becomes one root span with
// the full restore/fault/execution tree below it. Pass nil to disable.
// Call before invoking; the tracer is read without synchronization.
func (p *Platform) SetTracer(t *telemetry.Tracer) { p.tracer = t }

type functionState struct {
	mu    sync.Mutex
	fn    *Function
	stats Stats
}

// Stats summarizes a function's served invocations.
type Stats struct {
	Invocations int64
	// TotalSetup/TotalExec accumulate virtual time.
	TotalSetup simtime.Duration
	TotalExec  simtime.Duration
	MaxExec    simtime.Duration
	// MajorFaults accumulates demand faults.
	MajorFaults int64
	// Phase is the TOSS phase (TOSS mode only).
	Phase core.Phase
	// NormCost is the function's current normalized memory cost (1.0
	// before a tiered snapshot exists or for non-TOSS modes).
	NormCost float64
	// SlowShare is the fraction of guest memory in the slow tier.
	SlowShare float64
}

// MeanExec returns the average execution time.
func (s Stats) MeanExec() simtime.Duration {
	if s.Invocations == 0 {
		return 0
	}
	return simtime.Duration(int64(s.TotalExec) / s.Invocations)
}

// New returns an empty platform.
func New(cfg core.Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Platform{cfg: cfg, fns: make(map[string]*functionState)}, nil
}

// Register adds a function under the given serving mode.
func (p *Platform) Register(spec *workload.Spec, mode Mode) error {
	fn, err := NewFunction(p.cfg, spec, mode)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.fns[spec.Name]; dup {
		return fmt.Errorf("platform: function %q already registered", spec.Name)
	}
	p.fns[spec.Name] = &functionState{fn: fn, stats: Stats{NormCost: 1}}
	return nil
}

// Record is the outcome of one platform invocation, as Function.Cold
// returns it.
type Record struct {
	Function string
	Level    workload.Level
	Mode     Mode
	Phase    core.Phase // TOSS only
	Setup    simtime.Duration
	Exec     simtime.Duration
	Faults   int64
	// Meter is the invocation's per-tier time/touch accounting (zero on
	// error); ext8 derives fast-tier hit ratios from its LineTouches.
	Meter mem.MultiMeter
	// Retries counts fault-policy retries; their backoff is in Setup.
	Retries int
	// Degraded names the degradation policy that served this invocation
	// ("" when the primary path succeeded). See FAULTS.md.
	Degraded string
	// FaultSite is the injection site that caused the retry/degradation.
	FaultSite string
	// Err is non-nil when the invocation failed outright: the function is
	// unknown, or neither the retries nor a degradation policy recovered
	// it. A fault-site error keeps its typed chain (errors.As extracts
	// *fault.SiteError).
	Err error
	// XRay is the invocation's attribution budget (nil unless the config
	// has an XRay collector, or when the invocation failed). Its segments
	// sum exactly to Total(): the machine's budget extended with the
	// platform-level time this record adds (retry backoff, first-invocation
	// snapshot capture).
	XRay *xray.Budget
}

// Total returns setup + execution.
func (r Record) Total() simtime.Duration { return r.Setup + r.Exec }

// Invoke serves one invocation of a registered function at modeled
// concurrency 1. Safe for concurrent use, but concurrent callers do not see
// each other: contention comes only from the level Replay is given.
func (p *Platform) Invoke(name string, lv workload.Level, seed int64) Record {
	return p.invoke(name, lv, seed, 1)
}

// invoke serves one invocation charged the disk and slow-tier contention of
// conc invocations in flight through the function's Cold sequence, and
// accounts it: the root span, the function's stats, platform metrics and
// the flight recorder.
func (p *Platform) invoke(name string, lv workload.Level, seed int64, conc int) Record {
	p.mu.RLock()
	fs := p.fns[name]
	p.mu.RUnlock()
	if fs == nil {
		return Record{Function: name, Level: lv, Err: fmt.Errorf("platform: unknown function %q", name)}
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()

	// One root span per invocation, on its own track, with the invocation's
	// virtual timeline starting at 0.
	span := p.tracer.Root(telemetry.KindInvocation, name, 0,
		telemetry.Str("mode", fs.fn.mode.String()),
		telemetry.Str("level", lv.String()),
		telemetry.I64("seed", seed),
		telemetry.I64("concurrency", int64(conc)))

	rec := fs.fn.Cold(lv, seed, conc, span)
	if rec.Err != nil {
		return p.finish(rec, span)
	}
	if c := fs.fn.toss; c != nil {
		fs.stats.Phase = c.Phase()
		if a := c.Analysis(); a != nil {
			fs.stats.NormCost = a.MinCost()
			fs.stats.SlowShare = a.SlowShare()
		}
		if span != nil {
			span.Annotate(telemetry.Str("phase", rec.Phase.String()))
		}
	}

	fs.stats.Invocations++
	fs.stats.TotalSetup += rec.Setup
	fs.stats.TotalExec += rec.Exec
	fs.stats.MajorFaults += rec.Faults
	if rec.Exec > fs.stats.MaxExec {
		fs.stats.MaxExec = rec.Exec
	}
	return p.finish(rec, span)
}

// finish closes the invocation's root span and records platform metrics,
// then advances the flight recorder's (cfg.VM.Recorder) virtual clock by
// the invocation's duration so samples land on the platform's accumulated
// timeline.
func (p *Platform) finish(rec Record, span *telemetry.Span) Record {
	span.EndAt(rec.Total())
	if rec.XRay != nil {
		rec.XRay.Mark(xray.MarkRetries, int64(rec.Retries))
		if rec.Degraded != "" {
			rec.XRay.Mark("degraded."+rec.Degraded, 1)
		}
		if rec.FaultSite != "" {
			rec.XRay.Mark("fault.site."+rec.FaultSite, 1)
		}
		if rec.Mode == ModeTOSS {
			rec.XRay.Mark("phase."+rec.Phase.String(), 1)
		}
	}
	if met := p.cfg.VM.Metrics; met != nil {
		met.Counter(telemetry.MetricInvocations).Add(1)
		if rec.Retries > 0 {
			met.Counter(telemetry.MetricFaultRetries).Add(int64(rec.Retries))
		}
		if rec.Err != nil {
			met.Counter(telemetry.MetricInvokeErrors).Add(1)
		} else {
			met.Counter(telemetry.MetricBilledTime).Add(rec.Total().Nanoseconds())
			met.Counter(telemetry.MetricPlatformFaults).Add(rec.Faults)
			if rec.Degraded != "" {
				met.Counter(telemetry.MetricDegraded).Add(1)
				met.Counter(telemetry.MetricRecoveryLatency).Add(rec.Total().Nanoseconds())
			}
		}
	}
	if rec.Degraded != "" && rec.Err == nil {
		p.cfg.VM.Recorder.ObservePhase(rec.Function, "fault:"+rec.FaultSite, "degraded:"+rec.Degraded)
	}
	if rec.Err == nil {
		p.cfg.VM.Recorder.Advance(rec.Total())
	}
	return rec
}

// Stats returns a snapshot of the function's statistics.
func (p *Platform) Stats(name string) (Stats, error) {
	p.mu.RLock()
	fs := p.fns[name]
	p.mu.RUnlock()
	if fs == nil {
		return Stats{}, fmt.Errorf("platform: unknown function %q", name)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats, nil
}

// Request is one entry of an invocation trace.
type Request struct {
	Function string
	Level    workload.Level
	Seed     int64
}

// Replay serves a request trace in request order on the calling goroutine
// and returns one record per request. workers is the modeled concurrency:
// every invocation is charged the contention of min(workers, len(reqs))
// invocations in flight, so the records, and everything an attached tracer,
// recorder, metrics registry or fault injector sees, are the same on every
// run of the same trace.
func (p *Platform) Replay(reqs []Request, workers int) []Record {
	conc := min(workers, len(reqs))
	records := make([]Record, len(reqs))
	for i, req := range reqs {
		records[i] = p.invoke(req.Function, req.Level, req.Seed, conc)
	}
	return records
}

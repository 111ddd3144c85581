// Package platform assembles the pieces into a serverless platform: a
// function registry, per-function snapshot managers (TOSS, REAP, or plain
// lazy-restore DRAM), a trace replayer, and per-function billing statistics
// based on the paper's memory cost formula.
//
// Concurrency is a model input, not an observation: Replay serves a trace
// in request order and charges every invocation the memory/disk contention
// of the concurrency level it is given, so all timing is virtual and every
// output is a function of the trace and that level alone.
package platform

import (
	"fmt"
	"sync"

	"toss/internal/access"
	"toss/internal/core"
	"toss/internal/damon"
	"toss/internal/fault"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/obs"
	"toss/internal/reap"
	"toss/internal/simtime"
	"toss/internal/snapshot"
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

	// recorder, when set, receives machine restore/fault observations, TOSS
	// controller phase/placement transitions, and DAMON-accuracy audits, and
	// has its virtual clock advanced by each invocation's duration.
	recorder *obs.Recorder
}

// SetTracer attaches a tracer; each invocation becomes one root span with
// the full restore/fault/execution tree below it. Pass nil to disable.
// Call before invoking; the tracer is read without synchronization.
func (p *Platform) SetTracer(t *telemetry.Tracer) { p.tracer = t }

// SetRecorder attaches a flight recorder; it also becomes the microvm
// observer so demand faults and restores land on the residency timelines.
// Call before Register — TOSS controllers wire their phase and audit hooks
// to the recorder at registration time. Pass nil to detach.
func (p *Platform) SetRecorder(r *obs.Recorder) {
	p.recorder = r
	if r == nil {
		p.cfg.VM.Observer = nil // avoid a typed-nil interface in the hot path
		return
	}
	p.cfg.VM.Observer = r
}

type functionState struct {
	mu   sync.Mutex
	spec *workload.Spec
	mode Mode

	toss *core.Controller
	// reap serves ModeREAP, and ModeFaaSnap with a mincore tracker.
	reap *reap.Manager
	// dramSnap backs ModeDRAM after its first invocation.
	dramSnap *snapshot.Single
	// slowSnap/slowSingle back ModeSlow after its first invocation: the
	// all-slow tiered snapshot and the single image it was built from
	// (kept for the lazy outage fallback).
	slowSnap   *snapshot.Tiered
	slowSingle *snapshot.Single

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
	if spec == nil {
		return fmt.Errorf("platform: nil spec")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.fns[spec.Name]; dup {
		return fmt.Errorf("platform: function %q already registered", spec.Name)
	}
	fs := &functionState{spec: spec, mode: mode, stats: Stats{NormCost: 1}}
	switch mode {
	case ModeTOSS:
		c, err := core.NewController(p.cfg, spec)
		if err != nil {
			return err
		}
		if r := p.recorder; r != nil {
			name := spec.Name
			c.SetHooks(core.Hooks{
				OnPhase: func(from, to core.Phase) {
					r.ObservePhase(name, from.String(), to.String())
				},
				OnProfiled: func(seq int, pat damon.Pattern, truth *access.Histogram) {
					r.AuditDAMON(name, seq, pat, truth)
				},
				OnConverged: func(a *core.Analysis, ts *snapshot.Tiered) {
					r.ObservePlacement(name, a.Placement.Regions(mem.Slow), ts.GuestPages, "converged")
				},
			})
		}
		fs.toss = c
	case ModeREAP, ModeFaaSnap:
		newManager := reap.NewManager
		if mode == ModeFaaSnap {
			newManager = reap.NewFaaSnapManager
		}
		m, err := newManager(p.cfg.VM, spec)
		if err != nil {
			return err
		}
		fs.reap = m
	case ModeDRAM, ModeSlow:
		// Lazily capture their snapshots on first invocation.
	default:
		return fmt.Errorf("platform: unknown mode %v", mode)
	}
	p.fns[spec.Name] = fs
	return nil
}

// Record is the outcome of one platform invocation.
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
// conc invocations in flight. Every mode runs one sequence: retry the mode's
// serve step, hand a fault-site error that outlives the retries to the
// mode's degrade step, then account the result.
func (p *Platform) invoke(name string, lv workload.Level, seed int64, conc int) Record {
	p.mu.RLock()
	fs := p.fns[name]
	p.mu.RUnlock()
	rec := Record{Function: name, Level: lv}
	if fs == nil {
		rec.Err = fmt.Errorf("platform: unknown function %q", name)
		return rec
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec.Mode = fs.mode

	// One root span per invocation, on its own track, with the invocation's
	// virtual timeline starting at 0.
	span := p.tracer.Root(telemetry.KindInvocation, name, 0,
		telemetry.Str("mode", fs.mode.String()),
		telemetry.Str("level", lv.String()),
		telemetry.I64("seed", seed),
		telemetry.I64("concurrency", int64(conc)))

	res, err := retry(&rec, func() (microvm.Result, error) {
		return p.serve(fs, &rec, lv, seed, conc, span)
	})
	if err != nil && fault.SiteOf(err) != "" {
		rec.FaultSite = string(fault.SiteOf(err))
		res, rec.Degraded, err = p.degrade(fs, &rec, err, lv, seed, conc, span)
	}
	if err != nil {
		rec.Err = wrapFault(err)
		return p.finish(fs, rec, span)
	}
	waited := rec.Setup // retry backoff accumulated before the machine ran
	rec.Setup += res.Setup
	rec.Exec, rec.Faults, rec.Meter = res.Exec, res.MajorFaults, res.Meter
	rec.XRay = res.Budget
	rec.XRay.Extend(xray.SegRetryBackoff, waited)
	if c := fs.toss; c != nil {
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
	return p.finish(fs, rec, span)
}

// serve runs the primary path of fs's mode once. TOSS records the phase it
// served in, and a REAP or FaaSnap restore whose prefetch failed records
// its lazy fallback.
func (p *Platform) serve(fs *functionState, rec *Record, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	switch fs.mode {
	case ModeTOSS:
		res, err := fs.toss.InvokeTraced(lv, seed, conc, span)
		rec.Phase = res.Phase
		return res.Result, err
	case ModeREAP, ModeFaaSnap:
		res, err := fs.reap.InvokeTraced(lv, seed, conc, span)
		if res.PrefetchFailed {
			rec.Degraded = core.DegradeLazy
			rec.FaultSite = string(fault.SitePrefetch)
		}
		return res.Result, err
	case ModeDRAM:
		return p.invokeDRAM(fs, lv, seed, conc, span)
	default:
		return p.invokeSlow(fs, lv, seed, conc, span)
	}
}

// wrapFault adds platform context to a fault-site error while preserving
// the typed chain (errors.Is/As still see the sentinel and *SiteError).
// Non-fault errors pass through unchanged.
func wrapFault(err error) error {
	if fault.SiteOf(err) == "" {
		return err
	}
	return fmt.Errorf("platform: unrecovered fault: %w", err)
}

// finish closes the invocation's root span and records platform metrics,
// then advances the flight recorder's virtual clock by the invocation's
// duration so samples land on the platform's accumulated timeline.
func (p *Platform) finish(fs *functionState, rec Record, span *telemetry.Span) Record {
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
		p.recorder.ObservePhase(rec.Function, "fault:"+rec.FaultSite, "degraded:"+rec.Degraded)
	}
	if rec.Err == nil {
		p.recorder.Advance(rec.Total())
	}
	return rec
}

// capture serves a first invocation on a freshly booted machine and
// captures its single-tier snapshot, charging the capture to setup and to
// the budget's snapshot.write segment.
func (p *Platform) capture(fs *functionState, layout guest.Layout, tr *access.Trace, span *telemetry.Span) (microvm.Result, *snapshot.Single, error) {
	vm := microvm.NewBooted(p.cfg.VM, layout)
	vm.SetLabel(fs.spec.Name)
	res, err := vm.RunTraced(tr, span)
	if err != nil {
		return microvm.Result{}, nil, err
	}
	snap, cost := vm.SnapshotTraced(fs.spec.Name, span, res.Setup+res.Exec)
	res.Setup += cost
	res.Budget.Extend(xray.SegSnapshotWrite, cost)
	return res, snap, nil
}

// invokeDRAM serves the all-DRAM lazy-restore baseline.
func (p *Platform) invokeDRAM(fs *functionState, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	layout, err := fs.spec.Layout()
	if err != nil {
		return microvm.Result{}, err
	}
	tr, err := fs.spec.Trace(lv, seed)
	if err != nil {
		return microvm.Result{}, err
	}
	if fs.dramSnap == nil {
		res, snap, err := p.capture(fs, layout, tr, span)
		fs.dramSnap = snap
		return res, err
	}
	// Restore-time corruption fault (FAULTS.md): the lazy-restore snapshot
	// can rot on disk just like a tiered one.
	if _, fired := p.cfg.VM.Faults.At(fault.SiteRestoreCorrupt, fs.spec.Name, 0); fired {
		return microvm.Result{}, fault.Errorf(fault.SiteRestoreCorrupt, fs.spec.Name,
			fmt.Errorf("%w: injected checksum mismatch", snapshot.ErrCorrupt))
	}
	vm := microvm.RestoreLazy(p.cfg.VM, layout, fs.dramSnap, conc)
	return vm.RunTraced(tr, span)
}

// invokeSlow serves the slow-only baseline: every resident page lives in
// the slow tier via an all-slow tiered snapshot, captured (like ModeDRAM's)
// on the first invocation.
func (p *Platform) invokeSlow(fs *functionState, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	layout, err := fs.spec.Layout()
	if err != nil {
		return microvm.Result{}, err
	}
	tr, err := fs.spec.Trace(lv, seed)
	if err != nil {
		return microvm.Result{}, err
	}
	if fs.slowSnap == nil {
		res, single, err := p.capture(fs, layout, tr, span)
		if err != nil {
			return microvm.Result{}, err
		}
		allSlow, err := mem.NewMultiPlacement(2, mem.Slow, layout.TotalPages)
		if err != nil {
			return microvm.Result{}, err
		}
		fs.slowSingle = single
		fs.slowSnap = snapshot.BuildTiered(single, allSlow)
		return res, nil
	}
	// Restore-time faults (FAULTS.md): the slow tier can be unreachable,
	// and the snapshot can fail its checksum.
	if inj := p.cfg.VM.Faults; inj != nil {
		if _, fired := inj.At(fault.SiteSlowOutage, fs.spec.Name, 0); fired {
			return microvm.Result{}, fault.Errorf(fault.SiteSlowOutage, fs.spec.Name, fault.ErrTierUnavailable)
		}
		if _, fired := inj.At(fault.SiteRestoreCorrupt, fs.spec.Name, 0); fired {
			return microvm.Result{}, fault.Errorf(fault.SiteRestoreCorrupt, fs.spec.Name,
				fmt.Errorf("%w: injected checksum mismatch (sum %#x)", snapshot.ErrCorrupt, fs.slowSnap.Sum))
		}
	}
	vm := microvm.RestoreTiered(p.cfg.VM, layout, fs.slowSnap, conc)
	vm.SetRecordTruth(false)
	return vm.RunTraced(tr, span)
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

package platform

import (
	"fmt"

	"toss/internal/access"
	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/wstrack"
	"toss/internal/xray"
)

// faasnapReadahead is the host readahead window, in pages (128 KiB), that
// inflates FaaSnap's mincore-recorded working set.
const faasnapReadahead = 32

// Function is one function's snapshot mechanism: the state its mode keeps
// between invocations and the verbs that serve from it. The platform serves
// every registered function through one, and so do the discrete-event host
// simulator (internal/sched) and the cluster profiler, so each snapshot
// system and its fault policy exist once. A Function is not safe for
// concurrent use.
//
// Cold serves an invocation that restores from storage. The keep-alive
// verbs (Warm, Prewarm, Footprint, Ready) model the warm VMs of the four
// modes a keep-alive cache holds; ModeSlow, the all-slow bookend, has no
// warm path and its callers never cache it.
type Function struct {
	cfg    core.Config
	spec   *workload.Spec
	mode   Mode
	layout guest.Layout

	toss *core.Controller
	// single is the snapshot every other mode captures on its first
	// invocation and restores after it, and the one its lazy fallback
	// restores. slowSnap is ModeSlow's all-slow tiering of it, and ws the
	// working set ModeREAP (userfaultfd) or ModeFaaSnap (mincore) recorded
	// with it and prefetches on every restore.
	single   *snapshot.Single
	slowSnap *snapshot.Tiered
	ws       []guest.Region
}

// NewFunction builds the mechanism serving spec under mode, computing the
// guest layout once.
func NewFunction(cfg core.Config, spec *workload.Spec, mode Mode) (*Function, error) {
	if spec == nil {
		return nil, fmt.Errorf("platform: nil spec")
	}
	layout, err := spec.Layout()
	if err != nil {
		return nil, err
	}
	f := &Function{cfg: cfg, spec: spec, mode: mode, layout: layout}
	switch mode {
	case ModeTOSS:
		f.toss, err = core.NewController(cfg, spec)
	case ModeREAP, ModeDRAM, ModeFaaSnap, ModeSlow:
		// They capture their snapshots on the first invocation.
	default:
		err = fmt.Errorf("platform: unknown mode %v", mode)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Cold serves one invocation that restores from storage, charged the disk
// and slow-tier contention of conc invocations in flight. Every mode runs
// one sequence: retry the mode's serve step, then hand a fault-site error
// that outlives the retries to degrade. The record's Setup includes the
// retry backoff, and its XRay budget is extended by it; Err is set when
// nothing recovered the invocation. A non-nil span receives the
// invocation's span tree.
func (f *Function) Cold(lv workload.Level, seed int64, conc int, span *telemetry.Span) Record {
	rec := Record{Function: f.spec.Name, Level: lv, Mode: f.mode}
	res, err := retry(&rec, func() (microvm.Result, error) {
		return f.serve(&rec, lv, seed, conc, span)
	})
	if err != nil && fault.SiteOf(err) != "" {
		rec.FaultSite = string(fault.SiteOf(err))
		res, rec.Degraded, err = f.degrade(&rec, err, lv, seed, conc, span)
	}
	if err != nil {
		rec.Err = wrapFault(err)
		return rec
	}
	waited := rec.Setup // retry backoff accumulated before the machine ran
	rec.Setup += res.Setup
	rec.Exec, rec.Faults, rec.Meter = res.Exec, res.MajorFaults, res.Meter
	rec.XRay = res.Budget
	rec.XRay.Extend(xray.SegRetryBackoff, waited)
	return rec
}

// serve runs the primary path of f's mode once. A restore from a captured
// snapshot (TOSS's tiered phase, every other mode after its first
// invocation) first asks restoreFault. TOSS records the phase it served in.
func (f *Function) serve(rec *Record, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	if f.mode == ModeTOSS {
		if f.toss.Phase() == core.PhaseTiered {
			if err := f.restoreFault(); err != nil {
				return microvm.Result{}, err
			}
		}
		res, err := f.toss.InvokeTraced(lv, seed, conc, span)
		rec.Phase = res.Phase
		return res.Result, err
	}
	// Every other mode captures on the first invocation and restores after.
	tr, err := f.spec.Trace(lv, seed)
	if err != nil {
		return microvm.Result{}, err
	}
	if f.single == nil {
		return f.capture(tr, span)
	}
	if err := f.restoreFault(); err != nil {
		return microvm.Result{}, err
	}
	var vm *microvm.Machine
	switch f.mode {
	case ModeDRAM:
		vm = microvm.RestoreLazy(f.cfg.VM, f.layout, f.single, conc)
	case ModeSlow:
		vm = microvm.RestoreTiered(f.cfg.VM, f.layout, f.slowSnap, conc)
	default:
		vm = microvm.RestoreREAP(f.cfg.VM, f.layout, f.single, f.ws, conc)
	}
	vm.SetRecordTruth(false)
	return vm.RunTraced(tr, span)
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

// capture cold-boots the function, runs tr and captures a single-tier
// snapshot, its cost charged to setup: every mode's first invocation but
// TOSS's, and every re-snapshot. TOSS rebuilds its tiered snapshot from the
// capture, slow-only tiers it all-slow, and REAP and FaaSnap record the
// working set tr touched, FaaSnap's as mincore sees it under host readahead.
func (f *Function) capture(tr *access.Trace, span *telemetry.Span) (microvm.Result, error) {
	res, single, err := microvm.Capture(f.cfg.VM, f.layout, f.spec.Name, tr, span)
	if err != nil {
		return microvm.Result{}, err
	}
	switch f.mode {
	case ModeTOSS:
		f.toss.Resnapshot(single)
		return res, nil
	case ModeSlow:
		allSlow, err := mem.NewMultiPlacement(2, mem.Slow, f.layout.TotalPages)
		if err != nil {
			return microvm.Result{}, err
		}
		f.slowSnap = snapshot.BuildTiered(single, allSlow)
	case ModeREAP, ModeFaaSnap:
		if f.mode == ModeREAP {
			f.ws = wstrack.WorkingSet(tr)
		} else {
			f.ws = wstrack.WorkingSetMincore(tr, faasnapReadahead, f.layout.TotalPages)
		}
		span.Annotate(telemetry.I64("ws_pages", guest.TotalPages(f.ws)))
	}
	f.single = single
	return res, nil
}

// Warm serves an invocation in a resumed kept-alive VM, with no restore and
// its memory resident in its tiers, and returns the execution time; the
// caller prices the resume. A single-tier mode's VM runs all in DRAM. TOSS
// still serves through the controller (Controller.Invoke) so its profiling
// bookkeeping (pattern folding, convergence, Eq. 3/4 counters) continues;
// the restore inside is discarded, so no restore-time fault site is asked,
// and a warm tiered VM has no demand faults left to take.
func (f *Function) Warm(lv workload.Level, seed int64, conc int) (simtime.Duration, error) {
	if f.toss == nil {
		tr, err := f.spec.Trace(lv, seed)
		if err != nil {
			return 0, err
		}
		vm := microvm.NewResident(f.cfg.VM, f.layout, nil, conc)
		vm.SetLabel(f.spec.Name)
		vm.SetRecordTruth(false)
		res, err := vm.Run(tr)
		return res.Exec, err
	}
	res, err := f.toss.Invoke(lv, seed, conc)
	if err != nil {
		return 0, err
	}
	exec := res.Exec
	if f.toss.Phase() == core.PhaseTiered {
		exec = max(exec-res.FaultTime, 0)
	}
	return exec, nil
}

// Prewarm returns the cost of a background restore that parks a VM in the
// keep-alive cache ahead of a predicted arrival.
func (f *Function) Prewarm() simtime.Duration {
	vm := f.cfg.VM
	switch {
	case f.toss != nil:
		if ts := f.toss.Tiered(); ts != nil {
			return microvm.RestoreTiered(vm, f.layout, ts, 1).SetupTime()
		}
		// Before convergence, pre-warming restores the single-tier snapshot.
	case f.mode == ModeREAP || f.mode == ModeFaaSnap:
		if f.single == nil {
			// Nothing to restore yet; a boot-ahead would be the
			// alternative, but REAP's paper does not do that — charge a
			// restore-base only.
			return vm.VMLoadBase
		}
		return microvm.RestoreREAP(vm, f.layout, f.single, f.ws, 1).SetupTime()
	}
	return vm.VMLoadBase + vm.MmapCost
}

// Footprint returns the warm VM's keep-alive occupancy in pages on each
// tier.
func (f *Function) Footprint() (fastPages, slowPages int64) {
	switch {
	case f.toss != nil:
		if ts := f.toss.Tiered(); ts != nil {
			return int64(len(ts.FastMem.Pages)), int64(len(ts.SlowMem.Pages))
		}
		// Profiling phase: the DRAM-only guest's resident set.
		return f.layout.BootImage.Pages + f.layout.Heap.Pages/2, 0
	case f.mode == ModeREAP || f.mode == ModeFaaSnap:
		// REAP keeps everything in DRAM: WS plus faulted pages; approximate
		// with the recorded working set.
		if ws := guest.TotalPages(f.ws); ws > 0 {
			return ws, 0
		}
	case f.mode == ModeDRAM && f.single != nil:
		return int64(len(f.single.Memory.Pages)), 0
	}
	return f.layout.BootImage.Pages, 0
}

// WorkingSet returns the working set REAP or FaaSnap recorded at its
// capture: nil before the capture and in every other mode.
func (f *Function) WorkingSet() []guest.Region {
	return f.ws
}

// Ready reports whether the mechanism has reached its steady state: TOSS
// converged to its tiered snapshot, every other mode captured its snapshot
// (and REAP and FaaSnap their working set). Profilers warm up until Ready
// before measuring steady-state costs.
func (f *Function) Ready() bool {
	if f.toss != nil {
		return f.toss.Phase() == core.PhaseTiered
	}
	return f.single != nil
}

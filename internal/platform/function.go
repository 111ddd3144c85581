package platform

import (
	"fmt"

	"toss/internal/access"
	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/reap"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/xray"
)

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
	// reap serves ModeREAP, and ModeFaaSnap with a mincore tracker.
	reap *reap.Manager
	// single backs ModeDRAM and ModeSlow after their first invocation, and
	// slowSnap is ModeSlow's all-slow tiering of it (single stays for the
	// lazy outage fallback).
	single   *snapshot.Single
	slowSnap *snapshot.Tiered
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
	case ModeREAP:
		f.reap, err = reap.NewManager(cfg.VM, spec)
	case ModeFaaSnap:
		f.reap, err = reap.NewFaaSnapManager(cfg.VM, spec)
	case ModeDRAM, ModeSlow:
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
// snapshot (TOSS's tiered phase, DRAM and slow-only after their first
// invocation) first asks restoreFault. TOSS records the phase it served in,
// and a REAP or FaaSnap restore whose prefetch failed records its lazy
// fallback.
func (f *Function) serve(rec *Record, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	switch f.mode {
	case ModeTOSS:
		if f.toss.Phase() == core.PhaseTiered {
			if err := f.restoreFault(); err != nil {
				// The refused restore leaves its phase span, zero-length.
				span.Child(telemetry.KindControllerPhase, "phase:"+core.PhaseTiered.String(), 0)
				return microvm.Result{}, err
			}
		}
		res, err := f.toss.InvokeTraced(lv, seed, conc, span)
		rec.Phase = res.Phase
		return res.Result, err
	case ModeREAP, ModeFaaSnap:
		res, err := f.reap.InvokeTraced(lv, seed, conc, span)
		if res.PrefetchFailed {
			rec.Degraded = DegradeLazy
			rec.FaultSite = string(fault.SitePrefetch)
		}
		return res.Result, err
	}
	// DRAM and slow-only: capture on the first invocation, restore after.
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
	if f.mode == ModeDRAM {
		vm = microvm.RestoreLazy(f.cfg.VM, f.layout, f.single, conc)
	} else {
		vm = microvm.RestoreTiered(f.cfg.VM, f.layout, f.slowSnap, conc)
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
// snapshot, its cost charged to setup: DRAM's and slow-only's first
// invocation, and every re-snapshot. TOSS rebuilds its tiered snapshot from
// the capture, and slow-only tiers it all-slow.
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
	case f.reap != nil:
		if !f.reap.HasSnapshot() {
			// Nothing to restore yet; a boot-ahead would be the
			// alternative, but REAP's paper does not do that — charge a
			// restore-base only.
			return vm.VMLoadBase
		}
		return microvm.RestoreREAP(vm, f.layout, f.reap.Snapshot(), f.reap.WorkingSet(), 1).SetupTime()
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
	case f.reap != nil:
		// REAP keeps everything in DRAM: WS plus faulted pages; approximate
		// with the recorded working set.
		if ws := f.reap.WorkingSetPages(); ws > 0 {
			return ws, 0
		}
	case f.mode == ModeDRAM && f.single != nil:
		return int64(len(f.single.Memory.Pages)), 0
	}
	return f.layout.BootImage.Pages, 0
}

// Ready reports whether the mechanism has reached its steady state: TOSS
// converged to its tiered snapshot, REAP and FaaSnap recorded a working
// set, DRAM and slow-only captured their snapshot. Profilers warm up until
// Ready before measuring steady-state costs.
func (f *Function) Ready() bool {
	switch {
	case f.toss != nil:
		return f.toss.Phase() == core.PhaseTiered
	case f.reap != nil:
		return f.reap.HasSnapshot()
	}
	return f.single != nil
}

package sched

import (
	"fmt"

	"toss/internal/core"
	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/reap"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/workload"
)

// mechanism adapts one snapshot system to the simulator: cold restores,
// warm (resumed) invocations, background pre-warm restores, and the warm
// VM's per-tier footprint for the keep-alive cache.
//
// The faulted return reports that an injected restore fault fired and the
// invocation was served through a degradation policy (FAULTS.md); the
// simulator feeds it to the per-function circuit breaker.
type mechanism interface {
	// invokeCold restores from storage and runs.
	invokeCold(a workload.ArrivalSpec, conc int) (setup, exec simtime.Duration, faulted bool, err error)
	// invokeWarm runs in a resumed kept-alive VM (no restore, memory
	// resident in its tiers).
	invokeWarm(a workload.ArrivalSpec, conc int) (exec simtime.Duration, faulted bool, err error)
	// prewarm performs a background restore, returning its cost.
	prewarm() (simtime.Duration, error)
	// footprint returns the warm VM's (fastPages, slowPages).
	footprint() (int64, int64)
	// ready reports the mechanism reached its steady state (see
	// Invoker.Ready).
	ready() bool
}

// newMechanism builds the mechanism for one function.
func newMechanism(cfg Config, fn string) (mechanism, error) {
	spec, ok := workload.ByName(fn)
	if !ok {
		return nil, fmt.Errorf("sched: unknown function %q", fn)
	}
	layout, err := spec.Layout()
	if err != nil {
		return nil, err
	}
	switch cfg.Mechanism {
	case MechTOSS:
		ctrl, err := core.NewController(cfg.Core, spec)
		if err != nil {
			return nil, err
		}
		return &tossMech{cfg: cfg, layout: layout, ctrl: ctrl}, nil
	case MechREAP, MechFaaSnap:
		newManager := reap.NewManager
		if cfg.Mechanism == MechFaaSnap {
			newManager = reap.NewFaaSnapManager
		}
		mgr, err := newManager(cfg.Core.VM, spec)
		if err != nil {
			return nil, err
		}
		return &reapMech{cfg: cfg, spec: spec, layout: layout, mgr: mgr}, nil
	case MechDRAM:
		return &dramMech{cfg: cfg, spec: spec, layout: layout}, nil
	default:
		return nil, fmt.Errorf("sched: unknown mechanism %v", cfg.Mechanism)
	}
}

// --- TOSS ---

type tossMech struct {
	cfg    Config
	layout guest.Layout
	ctrl   *core.Controller
}

// serve runs one invocation through the controller and recovers a failed
// restore through its degradation policy; faulted reports the recovery.
func (m *tossMech) serve(a workload.ArrivalSpec, conc int) (res core.Result, faulted bool, err error) {
	res, err = m.ctrl.Invoke(a.Level, a.Seed, conc)
	if err != nil {
		res, _, err = m.ctrl.Degrade(err, a.Level, a.Seed, conc, nil)
		return res, true, err
	}
	return res, false, nil
}

func (m *tossMech) invokeCold(a workload.ArrivalSpec, conc int) (simtime.Duration, simtime.Duration, bool, error) {
	res, faulted, err := m.serve(a, conc)
	if err != nil {
		return 0, 0, faulted, err
	}
	return res.Setup, res.Exec, faulted, nil
}

// invokeWarm still routes through the controller so profiling-phase
// bookkeeping (pattern folding, convergence, Eq. 4 counters) continues; the
// restore cost inside the result is discarded because the VM was resumed,
// not restored. The controller's restore-time fault queries fire even
// though this VM was resumed, so it recovers exactly like a cold start and
// the warm path never errors out under injection.
func (m *tossMech) invokeWarm(a workload.ArrivalSpec, conc int) (simtime.Duration, bool, error) {
	res, faulted, err := m.serve(a, conc)
	if err != nil {
		return 0, faulted, err
	}
	exec := res.Exec
	// A warm tiered VM has no fast-tier demand faults left to take.
	if m.ctrl.Phase() == core.PhaseTiered {
		exec -= res.FaultTime
		if exec < 0 {
			exec = 0
		}
	}
	return exec, faulted, nil
}

func (m *tossMech) prewarm() (simtime.Duration, error) {
	if ts := m.ctrl.Tiered(); ts != nil {
		return microvm.RestoreTiered(m.cfg.Core.VM, m.layout, ts, 1).SetupTime(), nil
	}
	// Before convergence, pre-warming restores the single-tier snapshot.
	return m.cfg.Core.VM.VMLoadBase + m.cfg.Core.VM.MmapCost, nil
}

func (m *tossMech) ready() bool { return m.ctrl.Phase() == core.PhaseTiered }

func (m *tossMech) footprint() (int64, int64) {
	if ts := m.ctrl.Tiered(); ts != nil {
		return int64(len(ts.FastMem.Pages)), int64(len(ts.SlowMem.Pages))
	}
	// Profiling phase: the DRAM-only guest's resident set.
	return m.layout.BootImage.Pages + m.layout.Heap.Pages/2, 0
}

// --- REAP and FaaSnap ---

type reapMech struct {
	cfg    Config
	spec   *workload.Spec
	layout guest.Layout
	mgr    *reap.Manager
}

func (m *reapMech) invokeCold(a workload.ArrivalSpec, conc int) (simtime.Duration, simtime.Duration, bool, error) {
	res, err := m.mgr.Invoke(a.Level, a.Seed, conc)
	if err != nil {
		return 0, 0, false, err
	}
	return res.Setup, res.Exec, res.PrefetchFailed, nil
}

func (m *reapMech) invokeWarm(a workload.ArrivalSpec, conc int) (simtime.Duration, bool, error) {
	exec, err := residentExec(m.cfg, m.spec, m.layout, a, conc)
	return exec, false, err
}

func (m *reapMech) prewarm() (simtime.Duration, error) {
	if !m.mgr.HasSnapshot() {
		// Nothing to restore yet; a boot-ahead would be the alternative,
		// but REAP's paper does not do that — charge a restore-base only.
		return m.cfg.Core.VM.VMLoadBase, nil
	}
	vm := microvm.RestoreREAP(m.cfg.Core.VM, m.layout, m.mgr.Snapshot(), m.mgr.WorkingSet(), 1)
	return vm.SetupTime(), nil
}

func (m *reapMech) ready() bool { return m.mgr.HasSnapshot() }

func (m *reapMech) footprint() (int64, int64) {
	// REAP keeps everything in DRAM: WS plus faulted pages; approximate
	// with the recorded working set.
	ws := m.mgr.WorkingSetPages()
	if ws == 0 {
		ws = m.layout.BootImage.Pages
	}
	return ws, 0
}

// --- DRAM lazy restore ---

type dramMech struct {
	cfg    Config
	spec   *workload.Spec
	layout guest.Layout
	snap   *snapshot.Single
}

// invokeCold never reports faulted: the simulated DRAM baseline is scoped
// to in-execution fault sites (disk-read stalls, which fold into exec time);
// restore-corruption recovery for DRAM lives in internal/platform.
func (m *dramMech) invokeCold(a workload.ArrivalSpec, conc int) (simtime.Duration, simtime.Duration, bool, error) {
	tr, err := m.spec.Trace(a.Level, a.Seed)
	if err != nil {
		return 0, 0, false, err
	}
	if m.snap == nil {
		vm := microvm.NewBooted(m.cfg.Core.VM, m.layout)
		vm.SetLabel(m.spec.Name)
		vm.SetRecordTruth(false)
		res, err := vm.Run(tr)
		if err != nil {
			return 0, 0, false, err
		}
		snap, cost := vm.Snapshot(m.spec.Name)
		m.snap = snap
		return res.Setup + cost, res.Exec, false, nil
	}
	vm := microvm.RestoreLazy(m.cfg.Core.VM, m.layout, m.snap, conc)
	vm.SetLabel(m.spec.Name)
	vm.SetRecordTruth(false)
	res, err := vm.Run(tr)
	if err != nil {
		return 0, 0, false, err
	}
	return res.Setup, res.Exec, false, nil
}

func (m *dramMech) invokeWarm(a workload.ArrivalSpec, conc int) (simtime.Duration, bool, error) {
	exec, err := residentExec(m.cfg, m.spec, m.layout, a, conc)
	return exec, false, err
}

func (m *dramMech) prewarm() (simtime.Duration, error) {
	return m.cfg.Core.VM.VMLoadBase + m.cfg.Core.VM.MmapCost, nil
}

func (m *dramMech) ready() bool { return m.snap != nil }

func (m *dramMech) footprint() (int64, int64) {
	if m.snap != nil {
		return int64(len(m.snap.Memory.Pages)), 0
	}
	return m.layout.BootImage.Pages, 0
}

// residentExec runs an invocation fully resident in DRAM — the warm path
// shared by the single-tier mechanisms.
func residentExec(cfg Config, spec *workload.Spec, layout guest.Layout, a workload.ArrivalSpec, conc int) (simtime.Duration, error) {
	tr, err := spec.Trace(a.Level, a.Seed)
	if err != nil {
		return 0, err
	}
	vm := microvm.NewResident(cfg.Core.VM, layout, nil, conc)
	vm.SetLabel(spec.Name)
	vm.SetRecordTruth(false)
	res, err := vm.Run(tr)
	if err != nil {
		return 0, err
	}
	return res.Exec, nil
}

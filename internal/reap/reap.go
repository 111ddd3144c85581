// Package reap implements the REAP baseline (Ustiugov et al., ASPLOS'21),
// the snapshot-based state of the art the paper compares against (§VI-B).
//
// REAP's lifecycle:
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
// recorded WS missed (Fig. 3).
//
// FaaSnap (NewFaaSnapManager) runs the same lifecycle with the working set
// recorded by mincore() rather than userfaultfd (§III-C).
package reap

import (
	"fmt"

	"toss/internal/fault"
	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/wstrack"
)

// Manager drives REAP for one function, or FaaSnap when built by
// NewFaaSnapManager: the two systems restore the same way and differ only in
// the tracker that records the working set.
type Manager struct {
	cfg    microvm.Config
	spec   *workload.Spec
	layout guest.Layout

	snap *snapshot.Single
	ws   []guest.Region
	// readahead, when positive, records the working set with mincore()
	// under a host readahead window of that many pages (FaaSnap); zero
	// records it with userfaultfd (REAP).
	readahead int64
}

// NewManager returns a REAP manager for the given function.
func NewManager(cfg microvm.Config, spec *workload.Spec) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := spec.Layout()
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, spec: spec, layout: layout}, nil
}

// NewFaaSnapManager returns a manager for the FaaSnap baseline (Ao et al.,
// EuroSys'22), the other snapshot system the paper analyzes (§II-C): REAP's
// restore strategy, with the working set captured by mincore() instead of
// userfaultfd(). mincore also reports pages the host page cache prefetched
// around every fault, so the recorded WS is inflated by the 128 KiB
// readahead window: FaaSnap prefetches more than the function touched,
// trading setup time for fewer residual faults (§III-C).
func NewFaaSnapManager(cfg microvm.Config, spec *workload.Spec) (*Manager, error) {
	m, err := NewManager(cfg, spec)
	if err != nil {
		return nil, err
	}
	m.readahead = 32
	return m, nil
}

// HasSnapshot reports whether the first invocation has happened.
func (m *Manager) HasSnapshot() bool { return m.snap != nil }

// WorkingSet returns the recorded working set (nil before the snapshot).
func (m *Manager) WorkingSet() []guest.Region { return m.ws }

// Snapshot returns the captured single-tier snapshot (nil before the first
// invocation).
func (m *Manager) Snapshot() *snapshot.Single { return m.snap }

// Layout returns the function's guest layout.
func (m *Manager) Layout() guest.Layout { return m.layout }

// WorkingSetPages returns the recorded working set size in pages.
func (m *Manager) WorkingSetPages() int64 { return guest.TotalPages(m.ws) }

// InflationFactor reports how much larger the recorded working set is than
// trueWSPages, in pages per page (1.0 = no inflation): FaaSnap's mincore
// inflation when trueWSPages is REAP's working set for the same snapshot
// input (§III-C). Returns 0 before the first invocation.
func (m *Manager) InflationFactor(trueWSPages int64) float64 {
	if m.snap == nil || trueWSPages <= 0 {
		return 0
	}
	return float64(m.WorkingSetPages()) / float64(trueWSPages)
}

// Result augments the microVM result with REAP bookkeeping.
type Result struct {
	microvm.Result
	// PrefetchFailed is true when an injected prefetch-thread failure
	// (fault.SitePrefetch) degraded this restore to lazy on-demand paging.
	PrefetchFailed bool
}

// Invoke serves one invocation with the given input level and seed at the
// given host concurrency.
func (m *Manager) Invoke(lv workload.Level, seed int64, concurrency int) (Result, error) {
	return m.InvokeTraced(lv, seed, concurrency, nil)
}

// InvokeTraced is Invoke with an optional telemetry span: the boot-or-restore
// setup, execution, demand faults, and (on the first run) the snapshot and
// working-set capture become children of `span`.
func (m *Manager) InvokeTraced(lv workload.Level, seed int64, concurrency int, span *telemetry.Span) (Result, error) {
	tr, err := m.spec.Trace(lv, seed)
	if err != nil {
		return Result{}, err
	}
	if m.snap == nil {
		// The capture is charged to setup, as in every other mode.
		res, snap, err := microvm.Capture(m.cfg, m.layout, m.spec.Name, tr, span)
		if err != nil {
			return Result{}, fmt.Errorf("reap: initial invocation: %w", err)
		}
		m.snap = snap
		if m.readahead > 0 {
			m.ws = wstrack.WorkingSetMincore(tr, m.readahead, m.layout.TotalPages)
		} else {
			m.ws = wstrack.WorkingSet(tr)
		}
		if span != nil {
			span.Annotate(telemetry.I64("ws_pages", guest.TotalPages(m.ws)))
		}
		return Result{Result: res}, nil
	}
	// An injected prefetch-thread failure degrades this restore to lazy
	// on-demand paging: the snapshot is intact, only the eager working-set
	// read is lost, so every WS page demand-faults instead (FAULTS.md).
	_, prefetchFailed := m.cfg.Faults.At(fault.SitePrefetch, m.spec.Name, 0)
	var vm *microvm.Machine
	if prefetchFailed {
		vm = microvm.RestoreLazy(m.cfg, m.layout, m.snap, concurrency)
	} else {
		vm = microvm.RestoreREAP(m.cfg, m.layout, m.snap, m.ws, concurrency)
	}
	vm.SetRecordTruth(false)
	res, err := vm.RunTraced(tr, span)
	if err != nil {
		return Result{}, fmt.Errorf("reap: invocation: %w", err)
	}
	return Result{Result: res, PrefetchFailed: prefetchFailed}, nil
}

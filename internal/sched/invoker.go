package sched

import (
	"toss/internal/simtime"
	"toss/internal/workload"
)

// Invoker exposes one function's snapshot mechanism to callers outside the
// single-host simulator. The cluster layer uses it to measure per-function
// cost profiles (cold setup/exec, warm exec, tier footprints) once per
// mechanism, then drives its multi-node event loop off those measurements
// instead of embedding a full Sim per node.
type Invoker struct {
	mech mechanism
}

// NewInvoker builds a standalone mechanism for one function under the given
// host config.
func NewInvoker(cfg Config, fn string) (*Invoker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newMechanism(cfg, fn)
	if err != nil {
		return nil, err
	}
	return &Invoker{mech: m}, nil
}

// InvokeCold performs a cold start (restore from storage, then run) at the
// given concurrency and returns the setup and execution costs.
func (iv *Invoker) InvokeCold(a workload.ArrivalSpec, conc int) (setup, exec simtime.Duration, err error) {
	setup, exec, _, err = iv.mech.invokeCold(a, conc)
	return setup, exec, err
}

// InvokeWarm runs in a resumed kept-alive VM and returns the execution cost
// (the caller prices the resume itself, mirroring Sim's ResumeCost).
func (iv *Invoker) InvokeWarm(a workload.ArrivalSpec, conc int) (exec simtime.Duration, err error) {
	exec, _, err = iv.mech.invokeWarm(a, conc)
	return exec, err
}

// Footprint returns the warm VM's (fastPages, slowPages) — the keep-alive
// cache occupancy on each tier.
func (iv *Invoker) Footprint() (fastPages, slowPages int64) { return iv.mech.footprint() }

// Ready reports whether the mechanism has reached its steady state: TOSS
// converged to the tiered snapshot, REAP/FaaSnap recorded a working set,
// DRAM captured its snapshot. Profilers warm up until Ready before
// measuring steady-state costs.
func (iv *Invoker) Ready() bool { return iv.mech.ready() }

package platform

import (
	"errors"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/microvm"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/telemetry"
	"toss/internal/workload"
)

// FaultPolicy governs how the platform reacts to injected (or real)
// restore-path failures: how often to retry retryable errors, how long to
// back off between attempts (virtual time, so byte-deterministic), and
// whether to degrade gracefully instead of surfacing the error.
type FaultPolicy struct {
	// MaxRetries bounds retries of retryable errors (fault.Retryable)
	// after the initial attempt.
	MaxRetries int
	// BackoffBase is the wait before the first retry; attempt n waits
	// Base<<n, capped at BackoffCap.
	BackoffBase simtime.Duration
	// BackoffCap caps the exponential backoff.
	BackoffCap simtime.Duration
	// Degrade enables graceful degradation once retries are exhausted.
	// When false the typed error surfaces in Record.Err instead.
	Degrade bool
}

// DefaultFaultPolicy returns the policy the platform starts with: two
// retries at 1 ms/2 ms, degradation on.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{
		MaxRetries:  2,
		BackoffBase: simtime.Millisecond,
		BackoffCap:  8 * simtime.Millisecond,
		Degrade:     true,
	}
}

// Backoff returns the virtual-time wait before retry `attempt` (0-based).
func (fp FaultPolicy) Backoff(attempt int) simtime.Duration {
	if fp.BackoffBase <= 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d := fp.BackoffBase << attempt
	if fp.BackoffCap > 0 && d > fp.BackoffCap {
		d = fp.BackoffCap
	}
	return d
}

// retry runs invoke, retrying retryable errors up to the policy's budget
// with capped exponential backoff. The backoff is charged to the record's
// setup time — the invocation really did take that much longer to start.
func (p *Platform) retry(rec *Record, invoke func() (microvm.Result, error)) (microvm.Result, error) {
	res, err := invoke()
	for attempt := 0; err != nil && fault.Retryable(err) && attempt < p.policy.MaxRetries; attempt++ {
		rec.Retries++
		rec.Setup += p.policy.Backoff(attempt)
		res, err = invoke()
	}
	return res, err
}

// degradeSlow maps a slow-only restore failure to its fallback: outage →
// lazy restore from the single snapshot, corruption → rebuild the all-slow
// snapshot from a fresh boot.
func (p *Platform) degradeSlow(fs *functionState, rec *Record, cause error, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	switch {
	case errors.Is(cause, fault.ErrTierUnavailable):
		rec.Degraded = core.DegradeLazy
		layout, err := fs.spec.Layout()
		if err != nil {
			return microvm.Result{}, err
		}
		tr, err := fs.spec.Trace(lv, seed)
		if err != nil {
			return microvm.Result{}, err
		}
		vm := microvm.RestoreLazy(p.cfg.VM, layout, fs.slowSingle, conc)
		vm.SetLabel(fs.spec.Name)
		vm.SetRecordTruth(false)
		return vm.RunTraced(tr, span)
	case errors.Is(cause, snapshot.ErrCorrupt):
		rec.Degraded = core.DegradeResnapshot
		fs.slowSnap = nil
		return p.invokeSlow(fs, lv, seed, conc, span)
	}
	return microvm.Result{}, cause
}

// degradeDRAM handles the one failure the all-DRAM baseline can hit — a
// corrupt lazy-restore snapshot — by dropping it and re-capturing from a
// cold boot.
func (p *Platform) degradeDRAM(fs *functionState, rec *Record, cause error, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, error) {
	if errors.Is(cause, snapshot.ErrCorrupt) {
		rec.Degraded = core.DegradeResnapshot
		fs.dramSnap = nil
		return p.invokeDRAM(fs, lv, seed, conc, span)
	}
	return microvm.Result{}, cause
}

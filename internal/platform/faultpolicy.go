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

// The fault policy (FAULTS.md): a retryable restore failure is retried up
// to maxRetries times after the first attempt, with capped exponential
// backoff in virtual time (so byte-deterministic), and a fault-site error
// that outlives the retries is served through its mode's degradation
// policy.
const (
	maxRetries = 2
	// backoffBase is the wait before the first retry; attempt n waits
	// backoffBase<<n, capped at backoffCap.
	backoffBase = simtime.Millisecond
	backoffCap  = 8 * simtime.Millisecond
)

// backoff returns the virtual-time wait before retry attempt (0-based).
func backoff(attempt int) simtime.Duration {
	return min(backoffBase<<min(attempt, 30), backoffCap)
}

// retry runs invoke, retrying retryable errors up to maxRetries times with
// capped exponential backoff. The backoff is charged to the record's setup
// time — the invocation really did take that much longer to start.
func retry(rec *Record, invoke func() (microvm.Result, error)) (microvm.Result, error) {
	res, err := invoke()
	for attempt := 0; err != nil && fault.Retryable(err) && attempt < maxRetries; attempt++ {
		rec.Retries++
		rec.Setup += backoff(attempt)
		res, err = invoke()
	}
	return res, err
}

// degrade serves an invocation whose primary path failed with the
// fault-site error cause through f's mode's degradation policy, and names
// the policy ("" with cause returned when the mode has none for it). TOSS
// delegates to core.Controller.Degrade. Slow-only falls back from an outage
// to a lazy restore of its single snapshot, and both all-DRAM and
// slow-only re-capture a corrupt snapshot from a cold boot.
func (f *Function) degrade(rec *Record, cause error, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, string, error) {
	corrupt := errors.Is(cause, snapshot.ErrCorrupt)
	switch {
	case f.mode == ModeTOSS:
		res, policy, err := f.toss.Degrade(cause, lv, seed, conc, span)
		rec.Phase = res.Phase
		return res.Result, policy, err
	case f.mode == ModeDRAM && corrupt:
		f.dramSnap = nil
		res, err := f.invokeDRAM(lv, seed, conc, span)
		return res, core.DegradeResnapshot, err
	case f.mode == ModeSlow && corrupt:
		f.slowSnap = nil
		res, err := f.invokeSlow(lv, seed, conc, span)
		return res, core.DegradeResnapshot, err
	case f.mode == ModeSlow && errors.Is(cause, fault.ErrTierUnavailable):
		tr, err := f.spec.Trace(lv, seed)
		if err != nil {
			return microvm.Result{}, core.DegradeLazy, err
		}
		vm := microvm.RestoreLazy(f.cfg.VM, f.layout, f.slowSingle, conc)
		vm.SetRecordTruth(false)
		res, err := vm.RunTraced(tr, span)
		return res, core.DegradeLazy, err
	}
	return microvm.Result{}, "", cause
}

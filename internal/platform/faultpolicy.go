package platform

import (
	"errors"
	"fmt"

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
// that outlives the retries is served through the degradation policy for
// its cause.
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

// Degradation policy names (FAULTS.md), recorded in Record.Degraded.
const (
	// DegradeLazy serves from the single-tier snapshot with on-demand
	// paging: the fallback for slow-tier outages, and REAP's and FaaSnap's
	// for a failed prefetch.
	DegradeLazy = "lazy-fallback"
	// DegradeResnapshot invalidates a corrupt snapshot, cold-boots and
	// re-captures: the fallback for checksum failures at restore.
	DegradeResnapshot = "resnapshot"
	// DegradeReprofile demotes a TOSS function back to the profiling phase
	// before the lazy fallback: the response to a stale DAMON profile.
	DegradeReprofile = "reprofile"
)

// restoreFault asks the restore-time fault sites f's restore reads, in
// order, and returns the first that fires as a fault-site error: the slow
// tier unreachable (TOSS and slow-only), the snapshot failing its checksum
// (TOSS, DRAM and slow-only), the DAMON profile gone stale (TOSS). REAP and
// FaaSnap ask only whether the working-set prefetch thread dies.
func (f *Function) restoreFault() error {
	inj, name := f.cfg.VM.Faults, f.spec.Name
	if inj == nil {
		return nil
	}
	if f.mode == ModeREAP || f.mode == ModeFaaSnap {
		if _, fired := inj.At(fault.SitePrefetch, name, 0); fired {
			return fault.Errorf(fault.SitePrefetch, name, fault.ErrPrefetchFailed)
		}
		return nil
	}
	if f.mode != ModeDRAM {
		if _, fired := inj.At(fault.SiteSlowOutage, name, 0); fired {
			return fault.Errorf(fault.SiteSlowOutage, name, fault.ErrTierUnavailable)
		}
	}
	if _, fired := inj.At(fault.SiteRestoreCorrupt, name, 0); fired {
		return fault.Errorf(fault.SiteRestoreCorrupt, name,
			fmt.Errorf("%w: injected checksum mismatch", snapshot.ErrCorrupt))
	}
	if f.mode == ModeTOSS {
		if _, fired := inj.At(fault.SiteProfileStale, name, 0); fired {
			return fault.Errorf(fault.SiteProfileStale, name, fault.ErrProfileStale)
		}
	}
	return nil
}

// degrade serves an invocation whose restore failed with the fault-site
// error cause through the policy for that cause, and names the policy (""
// with cause returned for any other error): a slow-tier outage or a dead
// prefetch falls back to a lazy restore of the single-tier snapshot, a
// checksum failure re-captures the snapshot from a cold boot, and a stale
// profile sends TOSS back to profiling, then falls back lazily. TOSS serves
// each under a controller-phase span and records the phase it leaves the
// function in.
func (f *Function) degrade(rec *Record, cause error, lv workload.Level, seed int64, conc int, span *telemetry.Span) (microvm.Result, string, error) {
	var policy, phase string
	switch {
	case errors.Is(cause, fault.ErrTierUnavailable), errors.Is(cause, fault.ErrPrefetchFailed):
		policy, phase = DegradeLazy, "phase:degraded-lazy"
	case errors.Is(cause, snapshot.ErrCorrupt):
		policy, phase = DegradeResnapshot, "phase:recover-corrupt"
	case errors.Is(cause, fault.ErrProfileStale):
		policy, phase = DegradeReprofile, "phase:degraded-lazy"
	default:
		return microvm.Result{}, "", cause
	}
	tr, err := f.spec.Trace(lv, seed)
	if err != nil {
		return microvm.Result{}, policy, err
	}
	single := f.single
	if f.toss != nil {
		span = span.Child(telemetry.KindControllerPhase, phase, 0)
		single = f.toss.ProfileData().Single
	}
	var res microvm.Result
	if policy == DegradeResnapshot {
		res, err = f.capture(tr, span)
	} else {
		if policy == DegradeReprofile {
			f.toss.Reprofile()
		}
		vm := microvm.RestoreLazy(f.cfg.VM, f.layout, single, conc)
		vm.SetRecordTruth(false)
		res, err = vm.RunTraced(tr, span)
	}
	if f.toss != nil {
		span.EndAt(res.Total())
		rec.Phase = f.toss.Phase()
	}
	return res, policy, err
}

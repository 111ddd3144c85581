package cluster

import (
	"fmt"

	"toss/internal/guest"
	"toss/internal/platform"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// FnProfile is one function's measured steady-state cost profile under a
// mechanism: the numbers the cluster event loop charges per invocation
// instead of embedding a whole single-host simulator in every node. The
// profile is measured once per (mechanism, function) through a
// platform.Function — the mechanism the platform and the single-host
// simulator serve through, fault policy included — so cluster results stay
// anchored to the calibrated model rather than hand-picked constants.
type FnProfile struct {
	Name string
	// ColdSetup / ColdExec are the steady-state cold-start restore and
	// execution costs per input level.
	ColdSetup [4]simtime.Duration
	ColdExec  [4]simtime.Duration
	// WarmExec is the execution cost in a resumed kept-alive VM per level.
	WarmExec [4]simtime.Duration
	// FastPages / SlowPages is the warm VM's keep-alive footprint per tier.
	FastPages int64
	SlowPages int64
	// SnapshotBytes is the on-disk snapshot size a node must hold locally
	// (pull it over the network otherwise) to cold-restore the function.
	SnapshotBytes int64
	// Warmups is how many invocations the mechanism needed to reach its
	// steady state (TOSS convergence, REAP working-set capture).
	Warmups int
}

// maxProfileWarmups bounds the steady-state warm-up loop; TOSS converges in
// well under 100 invocations with the reduced convergence windows the
// experiments use.
const maxProfileWarmups = 400

// Profile measures steady-state profiles for every function under the given
// host config. Measurement seeds derive only from the function index, so
// the profiles — and everything the cluster computes from them — are
// reproducible from the config alone.
func Profile(cfg sched.Config, fns []string) (map[string]FnProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string]FnProfile, len(fns))
	for i, fn := range fns {
		p, err := profileOne(cfg, fn, int64(i))
		if err != nil {
			return nil, fmt.Errorf("cluster: profiling %s/%s: %w", cfg.Mechanism, fn, err)
		}
		out[fn] = p
	}
	return out, nil
}

// profileOne warms one mechanism to steady state and measures its costs.
func profileOne(cfg sched.Config, name string, fnIdx int64) (FnProfile, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return FnProfile{}, fmt.Errorf("unknown function %q", name)
	}
	fn, err := platform.NewFunction(cfg.Core, spec, cfg.Mechanism)
	if err != nil {
		return FnProfile{}, err
	}
	p := FnProfile{Name: name}
	seed := 7001 + fnIdx*131

	// Warm up: invoke cold across the levels until the mechanism reports
	// steady state (TOSS tiered, REAP/FaaSnap working set recorded, DRAM
	// snapshot captured).
	for n := 0; n < maxProfileWarmups && !fn.Ready(); n++ {
		lv := workload.Level(n % len(workload.Levels))
		if rec := fn.Cold(lv, seed+int64(n), 1, nil); rec.Err != nil {
			return FnProfile{}, rec.Err
		}
		p.Warmups++
	}
	if !fn.Ready() {
		return FnProfile{}, fmt.Errorf("not at steady state after %d warm-ups", p.Warmups)
	}

	// Measure per-level costs at concurrency 1 — queueing and contention
	// are the cluster loop's job, not the profile's.
	for li := range workload.Levels {
		lv := workload.Level(li)
		lvSeed := seed + 10_000 + int64(li)
		rec := fn.Cold(lv, lvSeed, 1, nil)
		if rec.Err != nil {
			return FnProfile{}, rec.Err
		}
		p.ColdSetup[li], p.ColdExec[li] = rec.Setup, rec.Exec
		warm, err := fn.Warm(lv, lvSeed, 1)
		if err != nil {
			return FnProfile{}, err
		}
		p.WarmExec[li] = warm
	}
	p.FastPages, p.SlowPages = fn.Footprint()
	p.SnapshotBytes = (p.FastPages + p.SlowPages) * guest.PageSize
	return p, nil
}

package sched

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"toss/internal/fault"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// simDigestGolden pins every record and counter the REAP and FaaSnap
// simulations produce with keep-alive and pre-warming on, with and without
// a fault plan. It was re-recorded when their first invocation began
// charging its snapshot capture to setup.
const simDigestGolden uint64 = 0x8a10604653da0c63

// simDigestGoldenTOSSDRAM pins the same for TOSS and DRAM, whose restore
// faults recover through the platform's retry and degradation sequence.
const simDigestGoldenTOSSDRAM uint64 = 0x9244d5e3f3896a88

// simDigestGoldenTiered pins TOSS with a slow keep-alive tier as well. A
// converged function's warm VM holds slow-tier pages, which a cache with no
// slow capacity rejects, so only this case serves warm invocations from
// the tiered snapshot (Function.Warm in PhaseTiered, DAMON-driven
// convergence first).
const simDigestGoldenTiered uint64 = 0x541b05b529d84203

// TestSimDigestGolden runs one mixed arrival trace through each mechanism,
// once fault-free and once under a 10% uniform fault plan, and hashes every
// record and the report's counters with FNV-64a: one digest for MechREAP
// and MechFaaSnap, one for MechTOSS and MechDRAM, and one for MechTOSS
// with 1 GiB of slow keep-alive capacity.
func TestSimDigestGolden(t *testing.T) {
	for _, c := range []struct {
		mechs     []Mechanism
		slowBytes int64
		want      uint64
	}{
		{[]Mechanism{MechREAP, MechFaaSnap}, 0, simDigestGolden},
		{[]Mechanism{MechTOSS, MechDRAM}, 0, simDigestGoldenTOSSDRAM},
		{[]Mechanism{MechTOSS}, 1 << 30, simDigestGoldenTiered},
	} {
		if got := simDigest(t, c.mechs, []float64{0, 0.1}, c.slowBytes); got != c.want {
			t.Errorf("%v sim digest = %#016x, want %#016x", c.mechs, got, c.want)
		}
	}
}

// simDigest hashes the simulations of the digest trace under each
// mechanism at each uniform fault rate (0 runs without a plan), with
// slowBytes of slow keep-alive capacity. Every TOSS function must end the
// run converged, and with slow capacity the cache must end holding a
// tiered VM's slow pages, or the digest would not cover the tiered path.
func simDigest(t *testing.T, mechs []Mechanism, rates []float64, slowBytes int64) uint64 {
	t.Helper()
	arr, err := workload.MixArrivals(workload.MixConfig{
		Horizon: 60 * simtime.Second,
		Mix: []workload.FunctionMix{
			{Function: "pyaes", Pattern: workload.Fixed, MeanIAT: 2 * simtime.Second},
			{Function: "json_load_dump", Pattern: workload.Steady, MeanIAT: 700 * simtime.Millisecond},
			{Function: "compress", Pattern: workload.Bursty, MeanIAT: 900 * simtime.Millisecond},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	fns := []string{"pyaes", "json_load_dump", "compress"}
	for _, mech := range mechs {
		for _, rate := range rates {
			cfg := testConfig(mech)
			cfg.KeepAliveFastBytes = 256 << 20
			cfg.KeepAliveSlowBytes = slowBytes
			cfg.KeepAliveTTL = simtime.Second
			cfg.Prewarm = true
			if rate > 0 {
				inj, err := fault.New(fault.UniformPlan(rate, 1))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Core.VM.Faults = inj
			}
			s, err := New(cfg, fns)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(arr)
			if err != nil {
				t.Fatal(err)
			}
			if mech == MechTOSS {
				for _, fn := range fns {
					if !s.fns[fn].Ready() {
						t.Fatalf("rate %v: %s never reached the tiered phase", rate, fn)
					}
				}
				if _, slow := s.cache.Occupancy(); slowBytes > 0 && slow == 0 {
					t.Fatalf("rate %v: no tiered VM kept alive on the slow tier", rate)
				}
			}
			put(int64(len(rep.Records)))
			for _, r := range rep.Records {
				put(int64(len(r.Function)))
				h.Write([]byte(r.Function))
				put(int64(r.Arrival))
				put(int64(r.QueueDelay))
				put(int64(r.Setup))
				put(int64(r.Exec))
				put(int64(r.Start))
			}
			for _, v := range []int64{int64(rep.Horizon), rep.PrewarmsIssued, rep.PrewarmsWasted,
				int64(rep.BusyCoreTime), rep.Expirations, rep.Storms, rep.DegradedServes,
				rep.BreakerTrips, rep.CacheStats.Hits, rep.CacheStats.Misses,
				rep.CacheStats.Evictions, rep.CacheStats.Rejected} {
				put(v)
			}
		}
	}
	return h.Sum64()
}

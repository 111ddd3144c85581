package sched

import (
	"testing"

	"toss/internal/fault"
	"toss/internal/simtime"
)

// faultConfig returns a cached host configuration running under plan.
func faultConfig(t *testing.T, mech Mechanism, plan fault.Plan) Config {
	t.Helper()
	cfg := testConfig(mech)
	cfg.KeepAliveFastBytes = 1 << 30
	cfg.KeepAliveSlowBytes = 1 << 30
	inj, err := fault.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Core.VM.Faults = inj
	return cfg
}

// TestEvictStormFlushesCache pins the eviction-storm site: with storms
// firing, the report counts them and the warm-start share collapses
// relative to the same trace without faults.
func TestEvictStormFlushesCache(t *testing.T) {
	arr := steadyTrace(t, 30*simtime.Second, 400*simtime.Millisecond, "pyaes")

	cfg := faultConfig(t, MechDRAM, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteEvictStorm: {Rate: 0.3},
	}})
	stormy, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	stormRep, err := stormy.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if stormRep.Storms == 0 {
		t.Fatal("rate-0.3 storm site never fired")
	}

	calm := faultConfig(t, MechDRAM, fault.Plan{Seed: 1})
	calmSim, err := New(calm, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	calmRep, err := calmSim.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if stormRep.ColdFraction() <= calmRep.ColdFraction() {
		t.Errorf("storms did not raise cold starts: %v vs %v",
			stormRep.ColdFraction(), calmRep.ColdFraction())
	}
	if stormRep.CacheStats.Evictions <= calmRep.CacheStats.Evictions {
		t.Errorf("storms did not raise evictions: %d vs %d",
			stormRep.CacheStats.Evictions, calmRep.CacheStats.Evictions)
	}
}

// TestBreakerTripsOnPersistentFaults pins the circuit breaker: a function
// whose every cold restore degrades (prefetch failure on each REAP restore)
// trips its breaker, which shows up in the report along with the
// degraded-serve count. No keep-alive cache, so every arrival takes the
// restore path where the prefetch site lives.
func TestBreakerTripsOnPersistentFaults(t *testing.T) {
	arr := steadyTrace(t, 30*simtime.Second, 400*simtime.Millisecond, "pyaes")
	cfg := testConfig(MechREAP)
	inj, err := fault.New(fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SitePrefetch: {Rate: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Core.VM.Faults = inj
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedServes == 0 {
		t.Fatal("rate-1 prefetch failures produced no degraded serves")
	}
	if rep.BreakerTrips == 0 {
		t.Error("persistent faults never tripped the breaker")
	}
	// Degradation serves every arrival; none may be dropped.
	if len(rep.Records) != len(arr) {
		t.Errorf("served %d of %d arrivals", len(rep.Records), len(arr))
	}
}

// TestDRAMCorruptSnapshotResnapshots pins the DRAM path's restore-corrupt
// site: with every restore failing its checksum, each arrival after the
// first re-captures the snapshot through the platform's degradation policy,
// so every arrival is served, each of those counts as a degraded serve, and
// the breaker trips.
func TestDRAMCorruptSnapshotResnapshots(t *testing.T) {
	arr := steadyTrace(t, 30*simtime.Second, 400*simtime.Millisecond, "pyaes")
	cfg := testConfig(MechDRAM)
	inj, err := fault.New(fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteRestoreCorrupt: {Rate: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Core.VM.Faults = inj
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(arr) {
		t.Errorf("served %d of %d arrivals", len(rep.Records), len(arr))
	}
	// The first arrival captures the snapshot and restores nothing.
	if want := int64(len(arr) - 1); rep.DegradedServes != want {
		t.Errorf("degraded serves = %d, want %d", rep.DegradedServes, want)
	}
	if rep.BreakerTrips == 0 {
		t.Error("persistent corruption never tripped the breaker")
	}
}

// TestFaultRunsDeterministic pins byte-level determinism under faults: two
// simulations over the same arrivals and plan produce identical records.
func TestFaultRunsDeterministic(t *testing.T) {
	arr := steadyTrace(t, 20*simtime.Second, 400*simtime.Millisecond, "pyaes", "compress")
	run := func() *Report {
		cfg := faultConfig(t, MechREAP, fault.UniformPlan(0.1, 7))
		s, err := New(cfg, []string{"pyaes", "compress"})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(arr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Storms != b.Storms || a.DegradedServes != b.DegradedServes || a.BreakerTrips != b.BreakerTrips {
		t.Fatalf("fault tallies diverge: %d/%d/%d vs %d/%d/%d",
			a.Storms, a.DegradedServes, a.BreakerTrips, b.Storms, b.DegradedServes, b.BreakerTrips)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("non-deterministic record count")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("records diverge at %d: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

// TestWarmTOSSServeQueriesNoRestoreSite pins that a warm TOSS serve
// restores nothing and so meets no restore-time fault: under a plan where
// 30% of restores find a corrupt snapshot, a keep-alive run that serves
// nearly every arrival warm counts no more degraded serves than it has
// cold starts, the only serves that restore.
func TestWarmTOSSServeQueriesNoRestoreSite(t *testing.T) {
	arr := steadyTrace(t, 30*simtime.Second, 150*simtime.Millisecond, "pyaes")
	cfg := faultConfig(t, MechTOSS, fault.Plan{Seed: 1, Sites: map[fault.Site]fault.Spec{
		fault.SiteRestoreCorrupt: {Rate: 0.3},
	}})
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	var cold int64
	for _, r := range rep.Records {
		if r.Start == ColdStart {
			cold++
		}
	}
	if int(cold) > len(rep.Records)/10 {
		t.Fatalf("%d of %d arrivals cold-started; the check needs a mostly warm run", cold, len(rep.Records))
	}
	if rep.DegradedServes > cold {
		t.Fatalf("%d degraded serves for %d cold starts (%d arrivals): warm serves met restore-time faults",
			rep.DegradedServes, cold, len(rep.Records))
	}
}

package sched

import (
	"testing"

	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// testConfig returns a small, fast host configuration.
func testConfig(mech Mechanism) Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Mechanism = mech
	cfg.Core.ConvergenceWindow = 4
	cfg.Core.ReprofileBudget = 0
	return cfg
}

// steadyTrace generates a deterministic steady trace for the functions.
func steadyTrace(t *testing.T, horizon simtime.Duration, iat simtime.Duration, fns ...string) []workload.ArrivalSpec {
	t.Helper()
	var mix []workload.FunctionMix
	for _, fn := range fns {
		mix = append(mix, workload.FunctionMix{Function: fn, Pattern: workload.Steady, MeanIAT: iat})
	}
	arr, err := workload.MixArrivals(workload.MixConfig{Horizon: horizon, Mix: mix, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestMechanismAndStartKindStrings(t *testing.T) {
	if MechTOSS.String() != "toss" || MechREAP.String() != "reap" || MechDRAM.String() != "dram" {
		t.Error("Mechanism.String wrong")
	}
	if ColdStart.String() != "cold" || WarmStart.String() != "warm" || PrewarmedStart.String() != "prewarmed" {
		t.Error("StartKind.String wrong")
	}
	if Mechanism(9).String() == "" || StartKind(9).String() == "" {
		t.Error("unknown enum String empty")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.KeepAliveFastBytes = -1 },
		func(c *Config) { c.ResumeCost = -1 },
		func(c *Config) { c.Prewarm = true }, // without cache
		func(c *Config) { c.Core.Bins = 0 },
		func(c *Config) { c.Mechanism = platform.ModeSlow }, // no warm path
		func(c *Config) { c.Mechanism = Mechanism(9) },
	}
	for i, m := range bad {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsUnknownFunction(t *testing.T) {
	if _, err := New(testConfig(MechDRAM), []string{"nope"}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestRunRejectsUnregisteredArrival(t *testing.T) {
	s, err := New(testConfig(MechDRAM), []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]workload.ArrivalSpec{{At: 1, Function: "compress"}}); err == nil {
		t.Error("unregistered arrival accepted")
	}
}

func TestBasicRunProducesOneRecordPerArrival(t *testing.T) {
	arr := steadyTrace(t, 20*simtime.Second, 500*simtime.Millisecond, "pyaes")
	s, err := New(testConfig(MechDRAM), []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(arr) {
		t.Fatalf("records %d != arrivals %d", len(rep.Records), len(arr))
	}
	for _, r := range rep.Records {
		if r.Latency() <= 0 {
			t.Fatalf("non-positive latency %v", r.Latency())
		}
		if r.QueueDelay < 0 {
			t.Fatalf("negative queue delay")
		}
	}
	if rep.Horizon <= 0 {
		t.Error("zero horizon")
	}
	if u := rep.Utilization(4); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	// No cache: everything is a cold start.
	if rep.ColdFraction() != 1 {
		t.Errorf("ColdFraction = %v without keep-alive", rep.ColdFraction())
	}
}

func TestDeterministicRuns(t *testing.T) {
	arr := steadyTrace(t, 10*simtime.Second, 300*simtime.Millisecond, "pyaes", "compress")
	run := func() *Report {
		s, err := New(testConfig(MechDRAM), []string{"pyaes", "compress"})
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
	if len(a.Records) != len(b.Records) {
		t.Fatal("non-deterministic record count")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("records diverge at %d: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

// TestQueuedDispatchErrorReturned: an invocation that waited for a core and
// fails when the core frees up fails Run with its error, the same as one
// that fails on arrival.
func TestQueuedDispatchErrorReturned(t *testing.T) {
	cfg := testConfig(MechDRAM)
	cfg.Cores = 1
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	arr := []workload.ArrivalSpec{
		{At: 1, Function: "pyaes", Level: workload.I, Seed: 1},
		// Queues behind the first, then has no trace to run.
		{At: 1, Function: "pyaes", Level: workload.Level(9), Seed: 2},
	}
	const want = "workload: invalid input level 9"
	if _, err := s.Run(arr); err == nil || err.Error() != want {
		t.Fatalf("Run returned %v, want %q", err, want)
	}
}

func TestSingleCoreQueues(t *testing.T) {
	cfg := testConfig(MechDRAM)
	cfg.Cores = 1
	// Burst of simultaneous-ish arrivals.
	var arr []workload.ArrivalSpec
	for i := 0; i < 5; i++ {
		arr = append(arr, workload.ArrivalSpec{
			At: simtime.Duration(i + 1), Function: "pyaes",
			Level: workload.I, Seed: int64(i + 1),
		})
	}
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	var queued int
	for _, r := range rep.Records {
		if r.QueueDelay > 0 {
			queued++
		}
	}
	if queued < 3 {
		t.Errorf("only %d of 5 burst arrivals queued on one core", queued)
	}
	// p99 latency must exceed p0 markedly under queueing.
	if rep.LatencyPercentile(99) <= rep.LatencyPercentile(0) {
		t.Error("no latency spread under queueing")
	}
}

func TestKeepAliveCutsColdStarts(t *testing.T) {
	arr := steadyTrace(t, 30*simtime.Second, 400*simtime.Millisecond, "pyaes")

	noCache, err := New(testConfig(MechDRAM), []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	repNo, err := noCache.Run(arr)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(MechDRAM)
	cfg.KeepAliveFastBytes = 1 << 30
	cfg.KeepAliveSlowBytes = 1 << 30
	withCache, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	repYes, err := withCache.Run(arr)
	if err != nil {
		t.Fatal(err)
	}

	if repYes.ColdFraction() >= repNo.ColdFraction() {
		t.Errorf("keep-alive did not cut cold starts: %v vs %v",
			repYes.ColdFraction(), repNo.ColdFraction())
	}
	// With an ample cache and steady traffic, almost everything is warm.
	if repYes.ColdFraction() > 0.1 {
		t.Errorf("ColdFraction = %v with ample cache, want <= 0.1", repYes.ColdFraction())
	}
	if repYes.CacheStats.Hits == 0 {
		t.Error("no cache hits recorded")
	}
	if repYes.MeanLatency() >= repNo.MeanLatency() {
		t.Errorf("keep-alive did not improve latency: %v vs %v",
			repYes.MeanLatency(), repNo.MeanLatency())
	}
}

func TestTinyCacheEvicts(t *testing.T) {
	arr := steadyTrace(t, 20*simtime.Second, 300*simtime.Millisecond, "pyaes", "json_load_dump")
	cfg := testConfig(MechDRAM)
	cfg.KeepAliveFastBytes = 64 << 20 // one small VM at a time
	s, err := New(cfg, []string{"pyaes", "json_load_dump"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheStats.Evictions == 0 && rep.CacheStats.Rejected == 0 {
		t.Error("tiny cache never evicted or rejected")
	}
}

func TestTOSSMechanismLifecycleUnderTrace(t *testing.T) {
	arr := steadyTrace(t, 60*simtime.Second, 300*simtime.Millisecond, "pyaes")
	cfg := testConfig(MechTOSS)
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(arr) {
		t.Fatal("lost records")
	}
	// After convergence, tiered setups are small and constant: the last
	// records' setups must be far below the first cold boot.
	first := rep.Records[0].Setup
	last := rep.Records[len(rep.Records)-1].Setup
	if last >= first/10 {
		t.Errorf("tiered setup %v not well below initial %v", last, first)
	}
}

func TestFaaSnapMechanismUnderTrace(t *testing.T) {
	arr := steadyTrace(t, 15*simtime.Second, 500*simtime.Millisecond, "json_load_dump")
	s, err := New(testConfig(MechFaaSnap), []string{"json_load_dump"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(arr) {
		t.Fatal("lost records")
	}
	if MechFaaSnap.String() != "faasnap" {
		t.Error("mechanism name wrong")
	}
}

func TestREAPMechanismUnderTrace(t *testing.T) {
	arr := steadyTrace(t, 15*simtime.Second, 500*simtime.Millisecond, "json_load_dump")
	s, err := New(testConfig(MechREAP), []string{"json_load_dump"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(arr) {
		t.Fatal("lost records")
	}
}

func TestPrewarmingHitsPeriodicFunction(t *testing.T) {
	// A fixed-period function is perfectly predictable: with pre-warming,
	// most starts should be prewarmed.
	mix := []workload.FunctionMix{{
		Function: "pyaes", Pattern: workload.Fixed, MeanIAT: 2 * simtime.Second,
	}}
	arr, err := workload.MixArrivals(workload.MixConfig{Horizon: 60 * simtime.Second, Mix: mix, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(MechDRAM)
	cfg.KeepAliveFastBytes = 1 << 30
	cfg.KeepAliveSlowBytes = 1 << 30
	// The idle TTL is below the 2 s period, so without prediction every
	// arrival would be cold; pre-warming restores just ahead of each one.
	cfg.KeepAliveTTL = simtime.Second
	cfg.Prewarm = true
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrewarmsIssued == 0 {
		t.Fatal("no pre-warms issued for a periodic function")
	}
	prewarmed := 0
	for _, r := range rep.Records {
		if r.Start == PrewarmedStart {
			prewarmed++
		}
	}
	if prewarmed == 0 {
		t.Error("no prewarmed starts")
	}
}

func TestKeepAliveTTLExpiresIdleVMs(t *testing.T) {
	// Arrivals 5 s apart with a 1 s TTL: every warm VM expires before the
	// next request, so everything cold-starts and expiries are counted.
	var arr []workload.ArrivalSpec
	for i := 0; i < 6; i++ {
		arr = append(arr, workload.ArrivalSpec{
			At: simtime.Duration(i+1) * 5 * simtime.Second, Function: "pyaes",
			Level: workload.I, Seed: int64(i + 1),
		})
	}
	cfg := testConfig(MechDRAM)
	cfg.KeepAliveFastBytes = 1 << 30
	cfg.KeepAliveTTL = simtime.Second
	s, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ColdFraction() != 1 {
		t.Errorf("ColdFraction = %v, want 1 (all VMs expire)", rep.ColdFraction())
	}
	if rep.Expirations == 0 {
		t.Error("no expirations counted")
	}
	// Without the TTL the same trace is almost all warm.
	cfg.KeepAliveTTL = 0
	s2, err := New(cfg, []string{"pyaes"})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ColdFraction() >= rep.ColdFraction() {
		t.Errorf("TTL=0 cold fraction %v not below TTL=1s (%v)",
			rep2.ColdFraction(), rep.ColdFraction())
	}
}

func TestReportEmptyEdgeCases(t *testing.T) {
	var rep Report
	if rep.ColdFraction() != 0 || rep.MeanLatency() != 0 || rep.LatencyPercentile(99) != 0 {
		t.Error("empty report stats not zero")
	}
	if rep.Utilization(4) != 0 {
		t.Error("empty utilization not zero")
	}
}

// MeanLatency returns the average end-to-end latency.
func (r *Report) MeanLatency() simtime.Duration {
	if len(r.Records) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, rec := range r.Records {
		sum += rec.Latency()
	}
	return sum / simtime.Duration(len(r.Records))
}

package migrate

import (
	"slices"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/par"
	"toss/internal/simtime"
)

// testHierarchy returns the default 4-tier stack with explicit capacities
// (in pages) on the bounded tiers. The bottom object tier stays unbounded.
func testHierarchy(dram, cxl, ssd int64) mem.Hierarchy {
	h := mem.DefaultHierarchy()
	h.Tiers[0].CapacityPages = dram
	h.Tiers[1].CapacityPages = cxl
	h.Tiers[2].CapacityPages = ssd
	return h
}

// driftChecksum runs a rotating-hot-window workload for 24 epochs and
// returns the migration-log checksum — the workload the determinism test
// replays serially and under an 8-worker pool.
func driftChecksum(seed int64) uint64 {
	cfg := DefaultConfig(testHierarchy(256, 512, 1024))
	cfg.Seed = seed
	e, err := New(cfg, 64*64) // 64 extents
	if err != nil {
		panic(err)
	}
	for epoch := 0; epoch < 24; epoch++ {
		base := (epoch / 3) * 7 % e.Extents()
		for k := 0; k < 6; k++ {
			e.TouchExtent((base+k)%e.Extents(), float64(20-k))
		}
		e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
	}
	return e.LogChecksum()
}

// TestDeterminismSerialVsParallel pins the byte-determinism rule from
// TIERS.md: the same seed yields a byte-identical migration log whether
// engines run serially or fanned out over an 8-worker par pool.
func TestDeterminismSerialVsParallel(t *testing.T) {
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i*1000 + 7)
	}
	serial := make([]uint64, len(seeds))
	for i, s := range seeds {
		serial[i] = driftChecksum(s)
	}
	parallel, err := par.Map(par.New(8), seeds, func(_ int, s int64) (uint64, error) {
		return driftChecksum(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if serial[i] != parallel[i] {
			t.Fatalf("seed %d: serial checksum %x != parallel %x", seeds[i], serial[i], parallel[i])
		}
		// Repeat runs must also agree with themselves.
		if again := driftChecksum(seeds[i]); again != serial[i] {
			t.Fatalf("seed %d: rerun checksum %x != first %x", seeds[i], again, serial[i])
		}
	}
	// Different seeds must not all collapse to one log.
	if serial[0] == serial[1] && serial[1] == serial[2] {
		t.Fatalf("checksums do not vary with seed: %x", serial[0])
	}
}

// TestLogChecksumStreamsTickEvents holds the running log checksum to a hash
// of the log the engine no longer keeps: FNV-1a over every Tick's returned
// events, concatenated in order. Each Tick's buffer is copied before the
// next Tick reuses it.
func TestLogChecksumStreamsTickEvents(t *testing.T) {
	for _, policy := range Policies() {
		cfg := DefaultConfig(testHierarchy(256, 512, 1024))
		cfg.Policy = policy
		cfg.Seed = 11
		e, err := New(cfg, 64*64)
		if err != nil {
			t.Fatal(err)
		}
		var all []Event
		for epoch := 0; epoch < 24; epoch++ {
			base := (epoch / 3) * 7 % e.Extents()
			for k := 0; k < 6; k++ {
				e.TouchExtent((base+k)%e.Extents(), float64(20-k))
			}
			all = append(all, e.Tick(simtime.Duration(epoch+1)*cfg.Epoch)...)
		}
		if policy != PolicyStatic && len(all) == 0 {
			t.Fatalf("%s: no migrations to hash", policy)
		}
		if got, want := e.LogChecksum(), checksumEvents(all); got != want {
			t.Fatalf("%s: LogChecksum %x, FNV-1a of the %d returned events %x", policy, got, len(all), want)
		}
	}
}

// TestRerankResortsDecayTies drives rank down its full-sort path: at Decay
// 0 every untouched extent decays to heat 0, so the previous epoch's order
// by heat no longer holds and the ties fall to the jitter. The check runs
// on the previous order the test saved, and the new ranking must equal a
// full sort.
func TestRerankResortsDecayTies(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(256, 512, 1024))
	cfg.Decay = 0
	cfg.Seed = 5
	e, err := New(cfg, 64*32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.Extents(); i++ {
		e.TouchExtent(i, float64(1+i))
	}
	e.Tick(cfg.Epoch)
	prev := slices.Clone(e.hot)
	e.TouchExtent(7, 3)
	e.Tick(2 * cfg.Epoch)

	var untouched []rankKey
	for _, k := range prev {
		if k.i != 7 {
			untouched = append(untouched, rankKey{heat: e.heat[k.i], jit: k.jit, i: k.i})
		}
	}
	if slices.IsSortedFunc(untouched, hotter) {
		t.Fatal("decay kept the untouched extents in order; the full-sort path is not exercised")
	}
	want := make([]rankKey, e.nExt)
	for i := range want {
		want[i] = rankKey{heat: e.heat[i], jit: e.jit[i], i: int32(i)}
	}
	slices.SortFunc(want, hotter)
	if !slices.Equal(e.hot, want) {
		t.Fatalf("reranked order differs from a full sort:\n got %v\nwant %v", e.hot, want)
	}
}

// TestOccupancyInvariant checks that every page is booked to exactly one
// tier through an active migration run.
func TestOccupancyInvariant(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(256, 256, 512))
	cfg.Seed = 3
	total := int64(64 * 40)
	e, err := New(cfg, total)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		var sum int64
		for _, n := range e.Occupancy() {
			sum += n
		}
		if sum != total {
			t.Fatalf("%s: occupancy sums to %d, want %d (%v)", when, sum, total, e.Occupancy())
		}
	}
	check("initial")
	e.SetLevel(guest.Region{Start: 0, Pages: 256}, 0)
	e.SetLevel(guest.Region{Start: 256, Pages: 256}, 1)
	check("after seeding")
	for epoch := 0; epoch < 12; epoch++ {
		base := (epoch * 5) % e.Extents()
		for k := 0; k < 8; k++ {
			e.TouchExtent((base+k)%e.Extents(), 10)
		}
		e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
		check("after tick")
	}
}

// TestStaticNeverMoves: PolicyStatic only decays heat.
func TestStaticNeverMoves(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(128, 128, 128))
	cfg.Policy = PolicyStatic
	e, _ := New(cfg, 64*8)
	for epoch := 0; epoch < 5; epoch++ {
		e.TouchExtent(epoch%e.Extents(), 1000)
		if evs := e.Tick(simtime.Duration(epoch+1) * cfg.Epoch); len(evs) != 0 {
			t.Fatalf("static policy migrated: %v", evs)
		}
	}
	if e.Stats().Moves() != 0 {
		t.Fatalf("static policy recorded moves: %+v", e.Stats())
	}
}

// TestZeroSizeMiddleTier: a zero-capacity CXL tier is skipped by both the
// desired packing and the demotion cascade — no extent ever lands on it.
func TestZeroSizeMiddleTier(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 0, 128))
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*6)
	e.TouchExtent(0, 100)
	e.TouchExtent(1, 50)
	e.Tick(cfg.Epoch)
	if got := e.LevelOfExtent(0); got != 0 {
		t.Fatalf("hottest extent at level %d, want 0 (dram)", got)
	}
	if got := e.LevelOfExtent(1); got != 2 {
		t.Fatalf("second extent at level %d, want 2 (ssd, skipping empty cxl)", got)
	}
	for i := 0; i < e.Extents(); i++ {
		if e.LevelOfExtent(i) == 1 {
			t.Fatalf("extent %d landed on the zero-size middle tier", i)
		}
	}
}

// TestEvictionCascadesPastFullTier: promoting into a full DRAM tier evicts
// the coldest incumbent, and with the next tier also full the eviction
// cascades one level deeper (demotion under a full lower tier).
func TestEvictionCascadesPastFullTier(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 64, 1024))
	cfg.Policy = PolicyPromoteOnly // no background demotion: force the evict path
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*4)
	e.SetLevel(e.ExtentRegion(0), 0) // cold incumbent fills dram
	e.SetLevel(e.ExtentRegion(1), 1) // fills cxl
	e.TouchExtent(0, 1)
	e.TouchExtent(1, 50)
	e.TouchExtent(2, 100) // challenger from the object tier
	evs := e.Tick(cfg.Epoch)
	if got := e.LevelOfExtent(2); got != 0 {
		t.Fatalf("challenger at level %d, want 0", got)
	}
	if got := e.LevelOfExtent(0); got != 2 {
		t.Fatalf("evicted incumbent at level %d, want 2 (cascaded past full cxl)", got)
	}
	if got := e.LevelOfExtent(1); got != 1 {
		t.Fatalf("cxl incumbent at level %d, want 1 (untouched)", got)
	}
	var evicts, promotes int
	for _, ev := range evs {
		switch ev.Reason {
		case ReasonEvict:
			evicts++
		case ReasonPromote:
			promotes++
		}
	}
	if evicts != 1 || promotes != 1 {
		t.Fatalf("want 1 evict + 1 promote, got %d + %d (%v)", evicts, promotes, evs)
	}
}

// TestPrefetchOnPromote: promoting an extent drags its address-space
// successors to the same tier.
func TestPrefetchOnPromote(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(1024, 1024, 1024))
	cfg.PrefetchExtents = 2
	e, _ := New(cfg, 64*10)
	e.TouchExtent(3, 10)
	evs := e.Tick(cfg.Epoch)
	for _, i := range []int{3, 4, 5} {
		if got := e.LevelOfExtent(i); got != 0 {
			t.Fatalf("extent %d at level %d, want 0", i, got)
		}
	}
	var prefetches int
	for _, ev := range evs {
		if ev.Reason == ReasonPrefetch {
			prefetches++
		}
	}
	if prefetches != 2 {
		t.Fatalf("want 2 prefetch events, got %d (%v)", prefetches, evs)
	}
	if got := e.LevelOfExtent(6); got == 0 {
		t.Fatalf("extent beyond the prefetch window was promoted")
	}
}

// TestHysteresisHoldsIncumbent: a challenger below PromoteMargin times the
// incumbent's heat does not displace it; above the margin it does.
func TestHysteresisHoldsIncumbent(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 1024, 1024))
	cfg.PrefetchExtents = 0
	cfg.MinResidencyEpochs = 0
	e, _ := New(cfg, 64*4)
	e.SetLevel(e.ExtentRegion(0), 0)
	// Incumbent heat 10, challenger 12 < 10*1.5: no churn.
	e.TouchExtent(0, 10)
	e.TouchExtent(1, 12)
	e.Tick(cfg.Epoch)
	if e.LevelOfExtent(0) != 0 || e.LevelOfExtent(1) == 0 {
		t.Fatalf("margin violated: incumbent at %d, challenger at %d",
			e.LevelOfExtent(0), e.LevelOfExtent(1))
	}
	// Challenger pushes past the margin: heat decays to 5 vs fresh 30.
	e.TouchExtent(1, 24) // EWMA: 0.5*12-ish + 24 — clearly > 0.5*10*1.5
	e.Tick(2 * cfg.Epoch)
	if e.LevelOfExtent(1) != 0 {
		t.Fatalf("hot challenger stuck at level %d", e.LevelOfExtent(1))
	}
}

// TestWaitForAndBandwidth: migrations cost virtual time on the daemon, an
// execution overlapping an in-flight extent stalls until the move lands,
// and each epoch schedules at most one epoch of bandwidth.
func TestWaitForAndBandwidth(t *testing.T) {
	h := testHierarchy(1<<20, 1<<20, 1<<20)
	// Slow promote bandwidth so moves are visible: 1 MiB/s into dram.
	h.Tiers[0].PromoteBytesPerSec = 1 << 20
	cfg := DefaultConfig(h)
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*64)
	for i := 0; i < 32; i++ {
		e.TouchExtent(i, float64(100-i))
	}
	evs := e.Tick(cfg.Epoch)
	if len(evs) == 0 {
		t.Fatal("no migrations scheduled")
	}
	// One extent = 256 KiB at 1 MiB/s = 250ms per move: only ~4-5 fit the
	// 1s epoch budget.
	if len(evs) >= 32 {
		t.Fatalf("bandwidth budget did not bound the epoch: %d moves", len(evs))
	}
	first := evs[0]
	if first.Done <= first.At {
		t.Fatalf("move has no duration: %+v", first)
	}
	if w := e.WaitFor(first.Region, first.At); w != first.Done-first.At {
		t.Fatalf("WaitFor mid-flight = %v, want %v", w, first.Done-first.At)
	}
	if w := e.WaitFor(first.Region, first.Done+1); w != 0 {
		t.Fatalf("WaitFor after landing = %v, want 0", w)
	}
	if e.Stats().BusyTime <= 0 {
		t.Fatal("daemon busy time not recorded")
	}
}

// TestOracleInstantAndGreedy: the oracle re-packs with no cost, no busy
// time, and no hysteresis.
func TestOracleInstantAndGreedy(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 64, 64))
	cfg.Policy = PolicyOracle
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*8)
	e.SetLevel(e.ExtentRegion(0), 0)
	e.TouchExtent(0, 10)
	e.TouchExtent(1, 11) // barely hotter: oracle has no margin, so it wins dram
	evs := e.Tick(cfg.Epoch)
	if got := e.LevelOfExtent(1); got != 0 {
		t.Fatalf("oracle kept the colder incumbent: challenger at %d", got)
	}
	if e.Stats().BusyTime != 0 {
		t.Fatalf("oracle paid busy time: %v", e.Stats().BusyTime)
	}
	for _, ev := range evs {
		if ev.Done != ev.At {
			t.Fatalf("oracle move has duration: %+v", ev)
		}
	}
	if w := e.WaitFor(guest.Region{Start: 0, Pages: 64 * 8}, 0); w != 0 {
		t.Fatalf("oracle left busy extents: wait %v", w)
	}
}

// TestTouchRegionWeighting: partial extent overlap contributes fractional
// heat; full overlap contributes perPage.
func TestTouchRegionWeighting(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(1024, 1024, 1024))
	e, _ := New(cfg, 64*4)
	e.Touch(guest.Region{Start: 32, Pages: 64}, 8) // half of extent 0, half of extent 1
	if e.pending[0] != 4 || e.pending[1] != 4 {
		t.Fatalf("half-overlap heat = %v/%v, want 4/4", e.pending[0], e.pending[1])
	}
	e.Touch(guest.Region{Start: 128, Pages: 64}, 8) // exactly extent 2
	if e.pending[2] != 8 {
		t.Fatalf("full-overlap heat = %v, want 8", e.pending[2])
	}
}

// TestConfigValidate rejects the obvious misconfigurations.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(testHierarchy(1, 1, 1))
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"extent", func(c *Config) { c.ExtentPages = 0 }},
		{"epoch", func(c *Config) { c.Epoch = 0 }},
		{"decay", func(c *Config) { c.Decay = 1 }},
		{"margin", func(c *Config) { c.PromoteMargin = 0.5 }},
		{"residency", func(c *Config) { c.MinResidencyEpochs = -1 }},
		{"prefetch", func(c *Config) { c.PrefetchExtents = -1 }},
	} {
		bad := good
		tc.mut(&bad)
		if bad.Validate() == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestTimelineRender smoke-tests the ASCII timeline used by the faasim demo.
func TestTimelineRender(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(256, 512, 1024))
	e, _ := New(cfg, 64*32)
	tl := NewTimeline(e)
	for epoch := 0; epoch < 4; epoch++ {
		e.TouchExtent(epoch*3, 50)
		e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
		tl.Capture(e, "epoch")
	}
	out := tl.Render(40)
	if len(out) == 0 || out == "(no epochs captured)\n" {
		t.Fatalf("empty timeline: %q", out)
	}
	if s := Summary(e); len(s) == 0 {
		t.Fatal("empty summary")
	}
}

// TestPolicyNames checks that the policy names ext11's tables print tell
// every policy apart.
func TestPolicyNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Policies() {
		name := p.String()
		if name == "" || seen[name] {
			t.Fatalf("policy %d has an empty or repeated name %q", int(p), name)
		}
		seen[name] = true
	}
}

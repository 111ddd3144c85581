package main

import (
	"fmt"
	"time"

	"toss/internal/access"
	"toss/internal/cluster"
	"toss/internal/core"
	"toss/internal/fleet"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/migrate"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// fleet is the two virtual-time control loops, which do no page-level
// replay: a diurnal+flash arrival stream through a four-node affinity-routed
// cluster (an open loop: latency counts from each arrival's due time), and
// the N-tier migration sweep over pagerank's drifting working set. One op is
// one simulated invocation of either loop. A pass is one stream on a fresh
// cluster plus one sweep; successive passes are successive quarter-days.
var fleetDef = workloadDef{
	name:            "fleet",
	make:            func(seed int64, dir string, p *probe) bench { return newFleetBench(seed, dir, p) },
	passesPerSecond: 0.85,
	top:             []string{"workload.arrivals_s", "cluster.run_s", "migrate.tick_s", "migrate.waitfor_s", "mem.charge_s"},
}

// The cluster loop runs the fleet of the repository's million-invocation
// day experiment (the three cluster functions on four affinity-routed
// nodes, hosts and disk sized from the measured TOSS profiles) at twice its
// arrival rate, so queueing and cold starts happen: about 600k invocations
// per quarter-day pass.
const (
	fleetHorizon = 6 * 3600 * simtime.Second
	fleetIAT     = 60 * simtime.Millisecond
	fleetNodes   = 4
	fleetCores   = 16
)

var fleetFuncs = []string{"json_load_dump", "pyaes", "compress"}

// The migration loop, as in the repository's N-tier sweep: DRAM sized at
// three fractions of the drifting hot window, four policies each, and four
// invocations per one-second epoch. Levels below directLevels are
// direct-access; deeper pages are fetched into DRAM on first touch.
const (
	migrationFunction   = "pagerank"
	migrationEpochs     = 12
	invocationsPerEpoch = 4
	directLevels        = 2
)

var dramFracs = []float64{0.5, 1.0, 1.5}

// scanEvent is one invocation's access burst over each window extent.
var scanEvent = access.Event{
	LinesPerPage: guest.LinesPerPage,
	Repeat:       1,
	Kind:         access.Read,
	Pattern:      access.Random,
	HitRatio:     0.2,
	CPUPerLine:   0.5,
}

type fleetBench struct {
	seed int64
	dir  string
	p    *probe

	profiles map[string]cluster.FnProfile
	ccfg     cluster.Config

	// Migration inputs from the pagerank build.
	hier        mem.Hierarchy
	totalPages  int64
	placement   *mem.MultiPlacement
	heat        []core.HeatRegion
	resident    []int
	window      int
	extPages    int64
	drift       int
	allDRAMCost float64
	resPages    int64

	acc          accumulator
	infl         *latHist
	records      int
	cold         int
	cellCost     float64
	cells        int
	hits, probes int64
}

func newFleetBench(seed int64, dir string, p *probe) *fleetBench {
	return &fleetBench{seed: seed, dir: dir, p: p, acc: newAccumulator(), infl: newLatHist()}
}

// setUp measures the cluster functions' profiles, sizes the fleet, and
// builds pagerank to seed the migration engines. None of it depends on the
// seed.
func (f *fleetBench) setUp() (digest, error) {
	cfg := suiteConfig()
	scfg := sched.DefaultConfig()
	scfg.Core = cfg
	scfg.Mechanism = sched.MechTOSS
	profiles, err := cluster.Profile(scfg, fleetFuncs)
	if err != nil {
		return 0, err
	}
	f.profiles = profiles
	d := newDigest()
	var fastSum, slowSum, fastMax, slowMax, snapSum, snapMax int64
	for _, fn := range fleetFuncs {
		p := profiles[fn]
		for l := range p.ColdSetup {
			d.add(int64(p.ColdSetup[l]), int64(p.ColdExec[l]), int64(p.WarmExec[l]))
		}
		fast, slow := p.FastPages*guest.PageSize, p.SlowPages*guest.PageSize
		fastSum, slowSum, snapSum = fastSum+fast, slowSum+slow, snapSum+p.SnapshotBytes
		fastMax, slowMax, snapMax = max(fastMax, fast), max(slowMax, slow), max(snapMax, p.SnapshotBytes)
	}
	host := fleet.HostSpec{FastBytes: max(fastSum*3/4, fastMax), SlowBytes: max(slowSum*3/4, slowMax)}
	f.ccfg = cluster.Config{
		Hosts:           host.Hosts(fleetNodes),
		Cores:           fleetCores,
		DiskBytes:       max(snapSum*7/10, snapMax),
		PullBytesPerSec: 2 << 30,
		ResumeCost:      500 * simtime.Microsecond,
		Router:          cluster.RouteAffinity,
		Cost:            cfg.Cost,
	}

	ref := newAccumulator()
	b, err := buildOne(cfg, workload.ByNameMust(migrationFunction), 1, f.dir, f.p, &ref, nil)
	if err != nil {
		return 0, err
	}
	d.add(int64(ref.dig))
	return d, f.prepareMigration(cfg.MergeDelta, b)
}

// prepareMigration derives the sweep's inputs from the build: the seed
// placement, the profiled heat, and the resident extents the hot window
// walks.
func (f *fleetBench) prepareMigration(mergeDelta int64, b *built) error {
	f.hier = mem.DefaultHierarchy()
	f.totalPages = b.ts.GuestPages
	var err error
	if f.placement, err = b.ts.SeedPlacement(f.hier.Levels(), 0, 1, f.hier.Bottom()); err != nil {
		return err
	}
	f.heat = b.pd.HeatRegions(mergeDelta)
	layout, err := migrate.New(migrate.DefaultConfig(f.hier), f.totalPages)
	if err != nil {
		return err
	}
	for i := 0; i < layout.Extents(); i++ {
		if f.placement.LevelOf(layout.ExtentRegion(i).Start) != f.hier.Bottom() {
			f.resident = append(f.resident, i)
		}
	}
	if len(f.resident) < 8 {
		return fmt.Errorf("only %d resident extents in %s's snapshot", len(f.resident), migrationFunction)
	}
	f.window = len(f.resident) / 4
	f.extPages = layout.ExtentRegion(f.resident[0]).Pages
	f.drift = max(f.window/8, 1)
	f.resPages = int64(len(b.ts.FastMem.Pages) + len(b.ts.SlowMem.Pages))
	f.allDRAMCost = float64(f.resPages) * f.hier.Tiers[0].CostPerPage
	return nil
}

func (f *fleetBench) pass(i int) error {
	if err := f.stream(i); err != nil {
		return err
	}
	for ci := 0; ci < len(dramFracs)*len(migrate.Policies()); ci++ {
		if err := f.cell(i, ci); err != nil {
			return err
		}
	}
	return nil
}

// countingSource counts the arrivals the cluster draws.
type countingSource struct {
	src workload.Source
	n   int
}

func (c *countingSource) Next() (workload.ArrivalSpec, bool) {
	a, ok := c.src.Next()
	if ok {
		c.n++
	}
	return a, ok
}

// stream runs pass i's arrival stream through a fresh cluster.
func (f *fleetBench) stream(i int) error {
	acfg := workload.ArrivalsConfig{
		Process:     workload.ProcDiurnalFlash,
		Horizon:     fleetHorizon,
		MeanIAT:     fleetIAT,
		Functions:   fleetFuncs,
		Seed:        mix(f.seed, int64(i)),
		FlashFactor: 4,
	}
	t := f.p.start()
	src, err := workload.NewStream(acfg)
	f.p.stop("workload.arrivals_s", t)
	if err != nil {
		return err
	}
	cl, err := cluster.New(f.ccfg, f.profiles)
	if err != nil {
		return err
	}
	counted := &countingSource{src: src}
	t = f.p.start()
	rep, err := cl.RunStream(counted)
	f.p.stop("cluster.run_s", t)
	if err != nil {
		return err
	}
	if f.p.traced {
		if err := f.reissueArrivals(acfg); err != nil {
			return err
		}
	}

	t0 := time.Now()
	defer f.p.exclude(t0)
	recs := &rep.Records
	f.acc.ops += counted.n
	if recs.Len() != counted.n {
		f.acc.fail("pass %d: %d cluster records for %d arrivals", i, recs.Len(), counted.n)
	}
	warmup := fleetHorizon / 24
	for k := 0; k < recs.Len(); k++ {
		l := recs.Latency(k)
		f.acc.lat.add(l)
		f.acc.dig.add(int64(l))
		if recs.Cold(k) {
			f.cold++
		}
		if recs.Arrival(k) >= warmup {
			f.infl.add(l - f.profiles[recs.Function(k)].WarmExec[recs.Level(k)])
		}
	}
	f.records += recs.Len()
	f.acc.dig.add(rep.Pulls, rep.Router.Spills, rep.Router.Sheds)
	f.p.count("cluster.pulls", float64(rep.Pulls))
	f.p.count("cluster.spills", float64(rep.Router.Spills))
	f.p.count("cluster.sheds", float64(rep.Router.Sheds))
	return nil
}

// reissueArrivals drains an identical stream, so arrival generation inside
// RunStream moves from cluster.run_s to workload.arrivals_s.
func (f *fleetBench) reissueArrivals(acfg workload.ArrivalsConfig) error {
	t0 := time.Now()
	defer f.p.exclude(t0)
	src, err := workload.NewStream(acfg)
	if err != nil {
		return err
	}
	t := time.Now()
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	f.p.move("cluster.run_s", "workload.arrivals_s", time.Since(t))
	return nil
}

// cell runs one (DRAM shape, policy) cell of the migration sweep.
func (f *fleetBench) cell(pass, ci int) error {
	pols := migrate.Policies()
	h := f.hier.Clone()
	windowPages := int64(f.window) * f.extPages
	h.Tiers[0].CapacityPages = int64(dramFracs[ci/len(pols)] * float64(windowPages))
	h.Tiers[1].CapacityPages = 2 * h.Tiers[0].CapacityPages
	h.Tiers[2].CapacityPages = 4 * h.Tiers[0].CapacityPages

	mcfg := migrate.DefaultConfig(h)
	mcfg.Policy = pols[ci%len(pols)]
	mcfg.ExtentPages = f.extPages
	mcfg.PrefetchExtents = f.drift
	mcfg.Seed = mix(f.seed, int64(pass), int64(ci))
	eng, err := migrate.New(mcfg, f.totalPages)
	if err != nil {
		return err
	}
	seedEngine(eng, f.placement, h)
	for _, hr := range f.heat {
		eng.Touch(hr.Region, hr.PerPage)
	}
	t := f.p.start()
	eng.Tick(0)
	f.p.stop("migrate.tick_s", t)

	meter := mem.NewMultiMeter(h.Levels())
	offset := int(uint64(mix(f.seed, int64(pass))) % uint64(len(f.resident)))
	for ep := 0; ep < migrationEpochs; ep++ {
		start := offset + ep*f.drift
		epochStart := simtime.Duration(ep+1) * mcfg.Epoch

		// direct is the window's access cost at the current placement; fetch
		// is the synchronous fault-in of pages on deeper tiers, paid by the
		// epoch's first invocation.
		var direct, fetch simtime.Duration
		t := f.p.start()
		for k := 0; k < f.window; k++ {
			x := f.resident[(start+k)%len(f.resident)]
			r := eng.ExtentRegion(x)
			lv := eng.LevelOfExtent(x)
			if lv < directLevels {
				direct += meter.ChargePages(h, scanEvent, lv, 1, r.Pages)
			} else {
				fetch += h.MoveCost(lv, 0, r.Pages)
				direct += meter.ChargePages(h, scanEvent, 0, 1, r.Pages)
			}
			if lv == 0 {
				f.hits++
			}
			f.probes++
			eng.TouchExtent(x, float64(scanEvent.TouchesPerPage()))
		}
		f.p.stop("mem.charge_s", t)

		for inv := 0; inv < invocationsPerEpoch; inv++ {
			at := epochStart + simtime.Duration(inv+1)*mcfg.Epoch/(invocationsPerEpoch+1)
			var wait simtime.Duration
			t := f.p.start()
			for k := 0; k < f.window; k++ {
				x := f.resident[(start+k)%len(f.resident)]
				wait = max(wait, eng.WaitFor(eng.ExtentRegion(x), at))
			}
			f.p.stop("migrate.waitfor_s", t)
			l := direct + wait
			if inv == 0 {
				l += fetch
			}
			f.acc.ops++
			f.acc.dig.add(int64(l))
		}
		t = f.p.start()
		eng.Tick(epochStart + mcfg.Epoch)
		f.p.stop("migrate.tick_s", t)

		var pages int64
		for _, n := range eng.Occupancy() {
			pages += n
		}
		if pages != f.totalPages {
			f.acc.fail("pass %d cell %d epoch %d: tiers hold %d of %d pages", pass, ci, ep, pages, f.totalPages)
		}
	}

	occ := eng.Occupancy()
	var placed int64
	for l := 0; l < h.Bottom(); l++ {
		placed += occ[l]
	}
	f.cellCost += h.ProvisionedCost(max(f.resPages-placed, 0)) / f.allDRAMCost
	f.cells++
	st := eng.Stats()
	f.acc.dig.add(int64(eng.LogChecksum()), st.Moves(), st.MovedPages)
	f.p.count("migrate.moves", float64(st.Moves()))
	f.p.count("migrate.moved_mib", float64(st.MovedPages*guest.PageSize)/(1<<20))
	return nil
}

// seedEngine loads the build's two-tier placement into the engine under
// per-tier capacity budgets: fast entries fill DRAM and spill down, slow
// entries start at CXL and spill down, non-resident pages stay at the
// bottom.
func seedEngine(e *migrate.Engine, mp *mem.MultiPlacement, h mem.Hierarchy) {
	left := make([]int64, h.Levels())
	for l := range left {
		left[l] = h.Capacity(l)
	}
	for i := 0; i < e.Extents(); i++ {
		r := e.ExtentRegion(i)
		want := mp.LevelOf(r.Start)
		for want < h.Bottom() && left[want] < r.Pages {
			want++
		}
		if want < h.Bottom() {
			left[want] -= r.Pages
		}
		e.SetLevel(r, want)
	}
}

func (f *fleetBench) result() outcome {
	return f.acc.outcome(
		metric{"norm_cost", f.cellCost / float64(max(f.cells, 1)), "ratio"},
		metric{"p50_ms", f.acc.lat.ms(50), "ms"},
		metric{"p99_ms", f.acc.lat.ms(99), "ms"},
		metric{"p99_infl_ms", f.infl.ms(99), "ms"},
		metric{"cold_pct", 100 * float64(f.cold) / float64(max(f.records, 1)), "%"},
		metric{"fast_hit_pct", 100 * float64(f.hits) / float64(max(f.probes, 1)), "%"})
}

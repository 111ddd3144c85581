package main

import (
	"fmt"
	"io"

	"toss/internal/core"
	"toss/internal/mem"
	"toss/internal/migrate"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// runMigrateDemo profiles one function through the TOSS pipeline, seeds the
// N-tier migration engine from its tiered snapshot, then drives a drifting
// hot window over the resident extents for a fixed number of epochs and
// renders the ASCII tier timeline: one row per epoch, one column per extent
// bucket, glyph = tier. The walkthrough in the README ("Watching a region
// migrate") narrates the output. Everything is seeded, so the bytes are
// reproducible for a given -seed and function.
func runMigrateDemo(o *options, w io.Writer) error {
	const (
		epochs    = 24
		heatTouch = 64 // per-page touches an epoch of window residency earns
	)
	spec, seed := o.fns[0], o.seed

	cfg := o.coreConfig()
	pd, _, err := core.NewProfileData(cfg, spec, workload.Levels[0], seed)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.ConvergenceWindow; i++ {
		lv := workload.Levels[i%len(workload.Levels)]
		if _, _, err := pd.ProfileInvocation(cfg, lv, seed+int64(i)+1, 1); err != nil {
			return err
		}
	}
	analysis, err := core.Analyze(cfg, pd)
	if err != nil {
		return err
	}
	tiered := core.BuildSnapshot(pd, analysis)

	h := mem.DefaultHierarchy()
	mp, err := tiered.SeedPlacement(h.Levels(), 0, 1, h.Bottom())
	if err != nil {
		return err
	}

	// Probe pass: find the resident extents so the tiers can be sized
	// against the working set (DRAM holds a quarter of it — enough pressure
	// that the window's drift forces real promotion/demotion traffic).
	probe, err := migrate.New(migrate.DefaultConfig(h), tiered.GuestPages)
	if err != nil {
		return err
	}
	var resident []int
	for i := 0; i < probe.Extents(); i++ {
		if mp.LevelOf(probe.ExtentRegion(i).Start) != h.Bottom() {
			resident = append(resident, i)
		}
	}
	if len(resident) < 8 {
		return fmt.Errorf("only %d resident extents in %s's snapshot", len(resident), spec.Name)
	}
	windowExtents := len(resident) / 4
	extPages := probe.ExtentRegion(resident[0]).Pages
	drift := windowExtents / 8
	if drift < 1 {
		drift = 1
	}

	h = h.Clone()
	h.Tiers[0].CapacityPages = int64(windowExtents) * extPages
	h.Tiers[1].CapacityPages = 2 * h.Tiers[0].CapacityPages
	h.Tiers[2].CapacityPages = 4 * h.Tiers[0].CapacityPages

	mcfg := migrate.DefaultConfig(h)
	mcfg.Policy = migrate.PolicyFull
	mcfg.PrefetchExtents = drift
	mcfg.Seed = seed
	eng, err := migrate.New(mcfg, tiered.GuestPages)
	if err != nil {
		return err
	}
	// Each extent starts at the level of its first page. Seeding may
	// overfill the now-lean DRAM tier; the first tick's repack demotes the
	// overflow, which is itself part of the show.
	for i := 0; i < eng.Extents(); i++ {
		r := eng.ExtentRegion(i)
		eng.SetLevel(r, mp.LevelOf(r.Start))
	}
	for _, hr := range pd.HeatRegions(cfg.MergeDelta) {
		eng.Touch(hr.Region, hr.PerPage)
	}

	fmt.Fprintf(w, "migrate demo: %s, %d guest pages, %d resident extents (%d pages each)\n",
		spec.Name, tiered.GuestPages, len(resident), extPages)
	fmt.Fprintf(w, "window %d extents drifting %d/epoch, policy %s, epoch %v\n\n",
		windowExtents, drift, mcfg.Policy, mcfg.Epoch)

	tl := migrate.NewTimeline(eng)
	tl.Capture(eng, "seed")
	for ep := 0; ep < epochs; ep++ {
		start := (ep * drift) % len(resident)
		for w := 0; w < windowExtents; w++ {
			eng.TouchExtent(resident[(start+w)%len(resident)], float64(heatTouch*extPages))
		}
		eng.Tick(simtime.Duration(ep+1) * mcfg.Epoch)
		tl.Capture(eng, fmt.Sprintf("e%02d", ep+1))
	}

	fmt.Fprint(w, tl.Render(96))
	fmt.Fprintf(w, "\n%s", migrate.Summary(eng))
	return nil
}

package experiments

import (
	"fmt"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/insight"
	"toss/internal/mem"
	"toss/internal/migrate"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
)

// ext11 sweeps the N-tier hierarchy (TIERS.md): tier-size shapes x migration
// policies over a drifting working set, charting the memory-cost vs p99
// frontier. The function's real TOSS build seeds the initial placement
// (fast tier -> DRAM, slow tier -> CXL, non-resident -> object store) and its
// DAMON profile seeds the heat EWMA; then the hot window drifts phase by
// phase across the resident address space — the access-pattern shift TOSS's
// static snapshot-time split cannot follow and the migration engine can.
const (
	// ext11Epochs is the full-scale virtual-epoch count (ClusterScale
	// shrinks it for CI smoke runs).
	ext11Epochs = 48
	// ext11InvocationsPerEpoch spaces invocations through each epoch so
	// migration stalls land on some of them, not just the first.
	ext11InvocationsPerEpoch = 4
	// ext11DirectLevels is how many top tiers are direct-access media
	// (DRAM, CXL). Pages on deeper tiers (SSD, object) cannot be loaded
	// from: an access synchronously fetches them into DRAM first
	// (MoveCost), which is the cost migration exists to hide.
	ext11DirectLevels = 2
	ext11Function     = "pagerank"
)

// ext11Shapes are the DRAM capacities swept, as fractions of the drifting
// hot window; CXL is 2x DRAM and SSD 4x DRAM in every shape, so each shape
// is one provisioned-cost point on the frontier.
var ext11Shapes = []struct {
	name     string
	dramFrac float64
}{
	{"lean", 0.5},
	{"matched", 1.0},
	{"ample", 1.5},
}

// ext11Scan is the per-extent access burst of one invocation over the hot
// window: a full-page scan with pagerank-like cache behaviour.
var ext11Scan = access.Event{
	LinesPerPage: guest.LinesPerPage,
	Repeat:       1,
	Kind:         access.Read,
	Pattern:      access.Random,
	HitRatio:     0.2,
	CPUPerLine:   0.5,
}

// ext11SeedEngine loads the TOSS build's two-tier placement into the engine
// with per-tier capacity budgets: fast entries fill DRAM and spill down,
// slow entries start at CXL and spill down, non-resident pages stay at the
// object bottom. Extent-aligned, deterministic.
func ext11SeedEngine(e *migrate.Engine, mp *mem.MultiPlacement, h mem.Hierarchy) {
	left := make([]int64, h.Levels())
	for l := 0; l < h.Levels(); l++ {
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

// ExtTierMigration runs the ext11 sweep: 3 tier-size shapes x 4 migration
// policies (static-TOSS / promote-only / full-migration / oracle) over the
// same drifting workload, reporting normalized memory cost, latency
// percentiles, DRAM hit rate, and migration activity per cell. Cells are
// independent and internally deterministic, so the table is byte-identical
// at any Suite.Workers.
func ExtTierMigration(s *Suite) (*Table, error) {
	spec := workload.ByNameMust(ext11Function)
	b, err := s.buildFor(spec, AllLevels)
	if err != nil {
		return nil, err
	}

	epochs := ext11Epochs
	if s.ClusterScale > 0 && s.ClusterScale < 1 {
		if epochs = int(float64(ext11Epochs) * s.ClusterScale); epochs < 12 {
			epochs = 12
		}
	}

	base := mem.DefaultHierarchy()
	totalPages := b.tiered.GuestPages
	seedPlacement, err := b.tiered.SeedPlacement(base.Levels(), 0, 1, base.Bottom())
	if err != nil {
		return nil, err
	}
	heat := b.pd.HeatRegions(s.Core.MergeDelta)

	// The drifting hot window walks the resident extents (the pages the
	// snapshot actually stores); its size in pages anchors the shapes.
	probe, err := migrate.New(migrate.DefaultConfig(base), totalPages)
	if err != nil {
		return nil, err
	}
	var resident []int
	for i := 0; i < probe.Extents(); i++ {
		if seedPlacement.LevelOf(probe.ExtentRegion(i).Start) != base.Bottom() {
			resident = append(resident, i)
		}
	}
	if len(resident) < 8 {
		return nil, fmt.Errorf("ext11: only %d resident extents in %s's snapshot", len(resident), ext11Function)
	}
	windowExtents := len(resident) / 4
	extPages := probe.ExtentRegion(resident[0]).Pages
	windowPages := int64(windowExtents) * extPages
	// The window creeps forward every epoch — gradual working-set drift, the
	// access-pattern shift a snapshot-time placement cannot follow.
	driftPerEpoch := windowExtents / 8
	if driftPerEpoch < 1 {
		driftPerEpoch = 1
	}
	// Stored snapshot pages: the all-DRAM cost baseline the frontier
	// normalizes against (non-resident zero pages are never stored).
	residentPages := int64(len(b.tiered.FastMem.Pages) + len(b.tiered.SlowMem.Pages))
	allDRAMCost := float64(residentPages) * base.Tiers[0].CostPerPage

	type cell struct {
		shape int
		pol   migrate.Policy
	}
	var cells []cell
	for si := range ext11Shapes {
		for _, p := range migrate.Policies() {
			cells = append(cells, cell{shape: si, pol: p})
		}
	}

	type row struct {
		cost, meanMs, p99Ms, hitPct, movedMiB, stallMs float64
		moves                                          int64
		ins                                            insight.Result
	}
	results, err := par.Map(s.Pool(), cells, func(ci int, c cell) (row, error) {
		shape := ext11Shapes[c.shape]
		// Clone: cells run concurrently and each resizes its own capacities.
		h := base.Clone()
		h.Tiers[0].CapacityPages = int64(shape.dramFrac * float64(windowPages))
		h.Tiers[1].CapacityPages = 2 * h.Tiers[0].CapacityPages
		h.Tiers[2].CapacityPages = 4 * h.Tiers[0].CapacityPages

		cfg := migrate.DefaultConfig(h)
		cfg.Policy = c.pol
		cfg.ExtentPages = extPages
		// Prefetch-on-promote sized to the drift rate: promoting the
		// window's leading edge pulls the extents the next epoch will need.
		cfg.PrefetchExtents = driftPerEpoch
		cfg.Seed = s.BaseSeed*1000 + 11*64 + int64(ci)
		eng, err := migrate.New(cfg, totalPages)
		if err != nil {
			return row{}, err
		}
		ext11SeedEngine(eng, seedPlacement, h)
		// Profile-derived heat pre-warms the EWMA so epoch one starts from
		// TOSS's view of the function, not a cold engine.
		for _, hr := range heat {
			eng.Touch(hr.Region, hr.PerPage)
		}
		eng.Tick(0)

		meter := mem.NewMultiMeter(h.Levels())
		// The alert feed observes values the loop computes anyway; it
		// consumes nothing the migration engine acts on.
		feed := newExt11InsightFeed(cfg.Epoch)
		var lat []simtime.Duration
		var hitSum, hitN int64
		var stall simtime.Duration
		for ep := 0; ep < epochs; ep++ {
			start := (ep * driftPerEpoch) % len(resident)
			epochStart := simtime.Duration(ep+1) * cfg.Epoch

			// direct is the window's access cost at current placement;
			// fetch is the synchronous fault-in of pages on non-direct
			// tiers (paid by the epoch's first invocation; the page cache
			// holds them for the rest of the epoch, and only a real
			// promotion keeps them up across epochs).
			var direct, fetch simtime.Duration
			for k := 0; k < windowExtents; k++ {
				i := resident[(start+k)%len(resident)]
				r := eng.ExtentRegion(i)
				lv := eng.LevelOfExtent(i)
				if lv < ext11DirectLevels {
					direct += meter.ChargePages(h, ext11Scan, lv, 1, r.Pages)
				} else {
					fetch += h.MoveCost(lv, 0, r.Pages)
					direct += meter.ChargePages(h, ext11Scan, 0, 1, r.Pages)
				}
				if lv == 0 {
					hitSum++
				}
				hitN++
				eng.TouchExtent(i, float64(ext11Scan.TouchesPerPage()))
			}
			var epochWait simtime.Duration
			for inv := 0; inv < ext11InvocationsPerEpoch; inv++ {
				// Arrivals spread through the epoch (20/40/60/80%); the
				// ones landing right after a tick eat the migration stall.
				at := epochStart + simtime.Duration(inv+1)*cfg.Epoch/(ext11InvocationsPerEpoch+1)
				var wait simtime.Duration
				for k := 0; k < windowExtents; k++ {
					i := resident[(start+k)%len(resident)]
					if w := eng.WaitFor(eng.ExtentRegion(i), at); w > wait {
						wait = w
					}
				}
				l := direct + wait
				if inv == 0 {
					l += fetch
				}
				lat = append(lat, l)
				stall += wait
				epochWait += wait
				feed.invocation(at, l)
			}
			eng.Tick(epochStart + cfg.Epoch)
			feed.epoch(epochStart+cfg.Epoch, fetch, epochWait, eng.Stats())
		}

		occ := eng.Occupancy()
		var placed int64
		for l := 0; l < h.Bottom(); l++ {
			placed += occ[l]
		}
		bottomResident := residentPages - placed
		if bottomResident < 0 {
			bottomResident = 0
		}
		st := eng.Stats()
		var mean float64
		for _, d := range lat {
			mean += float64(d)
		}
		mean /= float64(len(lat))
		p99Ms := float64(stats.NearestRankInPlace(lat, 99)) / float64(simtime.Millisecond)
		hitPct := 100 * float64(hitSum) / float64(hitN)
		cellName := "ext11/" + shape.name + "/" + c.pol.String()
		return row{
			cost:     h.ProvisionedCost(bottomResident) / allDRAMCost,
			meanMs:   mean / float64(simtime.Millisecond),
			p99Ms:    p99Ms,
			hitPct:   hitPct,
			moves:    st.Moves(),
			movedMiB: float64(st.MovedPages) * guest.PageSize / (1 << 20),
			stallMs:  float64(stall) / float64(simtime.Millisecond),
			ins:      feed.finish(cellName, simtime.Duration(epochs+1)*cfg.Epoch, p99Ms, hitPct),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "ext11",
		Title: fmt.Sprintf("N-tier migration frontier: tier shapes x policies over a drifting %s working set (%d epochs)",
			ext11Function, epochs),
		Header: []string{"shape", "policy", "norm cost", "mean (ms)", "p99 (ms)", "dram hit %", "moves", "moved MiB", "stall (ms)"},
	}
	byCell := map[cell]row{}
	for i, c := range cells {
		r := results[i]
		byCell[c] = r
		t.AddRow(ext11Shapes[c.shape].name, c.pol.String(),
			fmt.Sprintf("%.3f", r.cost),
			fmt.Sprintf("%.2f", r.meanMs),
			fmt.Sprintf("%.2f", r.p99Ms),
			fmt.Sprintf("%.1f", r.hitPct),
			fmt.Sprintf("%d", r.moves),
			fmt.Sprintf("%.1f", r.movedMiB),
			fmt.Sprintf("%.2f", r.stallMs))
	}

	t.AddNote("hierarchy dram/cxl/ssd/object; DRAM sized as a fraction of the %d-page hot window, CXL=2x and SSD=4x DRAM; object tier unbounded",
		windowPages)
	t.AddNote("hot window creeps %d extents/epoch across %d resident extents; seed placement and heat come from the function's real TOSS build",
		driftPerEpoch, len(resident))
	t.AddNote("dram and cxl are direct-access; pages on ssd/object are synchronously fetched into DRAM on first touch each epoch (the cost background migration hides)")
	t.AddNote("policies share each shape's provisioned capacities, so rows within a shape compare latency at (near-)equal memory cost")
	t.AddNote("stall counts WaitFor time actually charged; moves scheduled at an epoch tick usually land before the first arrival 20%% into the epoch")
	dominated := 0
	for si, shape := range ext11Shapes {
		st := byCell[cell{si, migrate.PolicyStatic}]
		fu := byCell[cell{si, migrate.PolicyFull}]
		or := byCell[cell{si, migrate.PolicyOracle}]
		if fu.p99Ms < st.p99Ms {
			dominated++
			t.AddNote("%s: full-migration p99 %.2f ms beats static-TOSS %.2f ms at norm cost %.3f vs %.3f",
				shape.name, fu.p99Ms, st.p99Ms, fu.cost, st.cost)
		} else {
			t.AddNote("WARNING: %s: full-migration p99 %.2f ms does not beat static-TOSS %.2f ms", shape.name, fu.p99Ms, st.p99Ms)
		}
		// Oracle repacks greedily with no hysteresis, so when DRAM is
		// smaller than the window it can thrash equal-heat extents and
		// lose a p99 race; its mean must still bound the real policies.
		if or.meanMs > fu.meanMs {
			t.AddNote("WARNING: %s: oracle mean %.2f ms above full-migration %.2f ms", shape.name, or.meanMs, fu.meanMs)
		}
	}
	if dominated == 0 {
		t.AddNote("WARNING: full-migration dominated static-TOSS on no shape of the drifting workload")
	}
	insResults := make([]insight.Result, len(results))
	for i, r := range results {
		insResults[i] = r.ins
		s.InsightSink.Record(r.ins.Cell, r.ins)
	}
	t.AddNote("%s", insightNote(insResults))
	return t, nil
}

package experiments

import (
	"fmt"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/mem"
	"toss/internal/par"
	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
)

// ext8Plan is the fault plan one ext8 cell runs under: frequent transient
// stalls (slow-tier and disk reads), occasional slow-tier outages, and rare
// catastrophic events (snapshot corruption, profile staleness) whose
// recoveries cost a full cold boot — kept rare so P99 reflects the tiering
// under stress rather than being a pure cold-boot lottery. rate <= 0
// returns a disabled plan (the injector stays nil, the zero-fault control).
func ext8Plan(rate float64, seed int64) fault.Plan {
	if rate <= 0 {
		return fault.Plan{Seed: seed}
	}
	return fault.Plan{Seed: seed, Sites: map[fault.Site]fault.Spec{
		fault.SiteSlowRead:       {Rate: rate, Stall: 2 * simtime.Millisecond},
		fault.SiteDiskRead:       {Rate: rate, Stall: simtime.Millisecond},
		fault.SiteSlowOutage:     {Rate: rate / 2},
		fault.SiteRestoreCorrupt: {Rate: rate / 50},
		fault.SiteProfileStale:   {Rate: rate / 100},
	}}
}

// ext8Funcs is the workload pair the sweep drives: one latency-sensitive
// function with a small footprint and one with a large, offload-heavy one.
var ext8Funcs = []string{"json_load_dump", "compress"}

// ext8Rates is the swept per-site base fault rate.
var ext8Rates = []float64{0, 0.02, 0.05, 0.10}

// ExtFaultTolerance sweeps fault rate against tail latency and fast-tier
// hit ratio for TOSS vs the DRAM-only and slow-only bookends under
// identical fault plans (same seed, same per-site rates). Every cell builds
// its own platform and injector, so cells are pure and the table is
// byte-identical across runs and pool sizes. Stalls land in the latencies
// through the injected-stall accounting; outages, corruption, and stale
// profiles are served through the platform's degradation policies
// (FAULTS.md), never surfacing as request errors.
func ExtFaultTolerance(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "ext8",
		Title: "Fault tolerance: fault rate vs latency and fast-tier hits, TOSS vs DRAM-only vs slow-only",
		Header: []string{"mode", "fault rate", "p50 (ms)", "p99 (ms)", "fast hit %",
			"fired", "degraded", "retries", "errors"},
	}
	type cell struct {
		mode platform.Mode
		rate float64
	}
	var cells []cell
	for _, mode := range []platform.Mode{platform.ModeTOSS, platform.ModeDRAM, platform.ModeSlow} {
		for _, rate := range ext8Rates {
			cells = append(cells, cell{mode: mode, rate: rate})
		}
	}
	type result struct {
		p50, p99 float64
		fastHit  float64
		fired    int64
		degraded int
		retries  int
		errors   int
	}
	measured := 80 * s.Iterations
	results, err := par.Map(s.Pool(), cells, func(_ int, c cell) (result, error) {
		cfg := s.Core
		var inj *fault.Injector
		if plan := ext8Plan(c.rate, s.BaseSeed); plan.Enabled() {
			var err error
			if inj, err = fault.New(plan); err != nil {
				return result{}, err
			}
		}
		cfg.VM.Faults = inj
		p, err := platform.New(cfg)
		if err != nil {
			return result{}, err
		}
		for _, fn := range ext8Funcs {
			spec, ok := workload.ByName(fn)
			if !ok {
				return result{}, fmt.Errorf("ext8: unknown function %q", fn)
			}
			if err := p.Register(spec, c.mode); err != nil {
				return result{}, err
			}
		}
		// Warm-up, excluded from measurement: TOSS profiles to convergence
		// (cycling inputs as core.Converge does); the bookends capture
		// their snapshot on the first invocation.
		for _, fn := range ext8Funcs {
			if c.mode == platform.ModeTOSS {
				for i := 0; i < core.MaxProfilingInvocations; i++ {
					if rec := p.Invoke(fn, AllLevels[i%len(AllLevels)], s.BaseSeed+int64(i)+1); rec.Err != nil {
						return result{}, fmt.Errorf("ext8 warmup: %w", rec.Err)
					}
					st, err := p.Stats(fn)
					if err != nil {
						return result{}, err
					}
					if st.Phase == core.PhaseTiered {
						break
					}
				}
			} else {
				if rec := p.Invoke(fn, workload.IV, s.BaseSeed+1); rec.Err != nil {
					return result{}, fmt.Errorf("ext8 warmup: %w", rec.Err)
				}
			}
		}
		// Measured serial request stream, identical for every cell.
		var res result
		lats := make([]simtime.Duration, 0, measured)
		var fastTouches, slowTouches int64
		for i := 0; i < measured; i++ {
			fn := ext8Funcs[i%len(ext8Funcs)]
			lv := AllLevels[(i/len(ext8Funcs))%len(AllLevels)]
			seed := s.BaseSeed + int64(i%97) + 1
			rec := p.Invoke(fn, lv, seed)
			if rec.Err != nil {
				res.errors++
				continue
			}
			lats = append(lats, rec.Total())
			fastTouches += rec.Meter.LineTouches[mem.Fast]
			slowTouches += rec.Meter.LineTouches[mem.Slow]
			if rec.Degraded != "" {
				res.degraded++
			}
			res.retries += rec.Retries
		}
		res.p50 = stats.NearestRankInPlace(lats, 50).Milliseconds()
		res.p99 = stats.NearestRankInPlace(lats, 99).Milliseconds()
		if total := fastTouches + slowTouches; total > 0 {
			res.fastHit = float64(fastTouches) / float64(total) * 100
		}
		res.fired = inj.Total()
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		r := results[i]
		t.AddRow(c.mode.String(),
			fmt.Sprintf("%.2f", c.rate),
			fmt.Sprintf("%.1f", r.p50),
			fmt.Sprintf("%.1f", r.p99),
			fmt.Sprintf("%.1f%%", r.fastHit),
			fmt.Sprintf("%d", r.fired),
			fmt.Sprintf("%d", r.degraded),
			fmt.Sprintf("%d", r.retries),
			fmt.Sprintf("%d", r.errors))
	}
	// TOSS holds its tail advantage over the lazy-restore DRAM baseline at
	// every swept fault rate: both pay the same rare recovery cold boots,
	// but DRAM demand-faults its whole working set from disk on every
	// restore while TOSS restores the fast tier up front. DRAM serves every
	// touch from DRAM, TOSS some from the slow tier, and degradation always
	// serves, so no cell counts an error.
	below, allFast, noErrors := true, true, true
	for ri := range ext8Rates {
		toss, dram := results[ri], results[len(ext8Rates)+ri]
		below = below && toss.p99 < dram.p99
		allFast = allFast && dram.fastHit == 100 && toss.fastHit < 100
	}
	for _, r := range results {
		noErrors = noErrors && r.errors == 0
	}
	t.Claim("ext8.toss_p99_below_dram", below,
		"TOSS keeps p99 below lazy-restore DRAM at every fault rate while serving from a partly-slow snapshot")
	t.Claim("ext8.dram_all_fast", allFast,
		"DRAM's fast-hit is 100%% by construction (all pages in DRAM); TOSS trades fast-tier hits for memory cost")
	t.Claim("ext8.no_errors", noErrors, "")
	t.AddNote("identical plans per rate: same seed and per-site rates across modes; see FAULTS.md for sites and policies")
	return t, nil
}

package experiments

import (
	"fmt"
	"strings"

	"toss/internal/cluster"
	"toss/internal/fleet"
	"toss/internal/fleetobs"
	"toss/internal/guest"
	"toss/internal/par"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
)

// ext9Funcs is the cluster workload: one latency-sensitive small function,
// one mid-size, one large offload-heavy one. The fleet's hosts are sized
// from the measured profiles so that no single node can keep the whole set
// warm — cold-start placement is what the router sweep measures.
var ext9Funcs = []string{"json_load_dump", "pyaes", "compress"}

// ext9Rates is the offered fleet-wide arrival-rate ladder (invocations per
// second of virtual time). Each cell walks it upward and reports the highest
// rate whose p99 still meets the SLO.
var ext9Rates = []int64{10, 15, 20, 30, 40, 60, 80, 120, 160, 240, 320}

// ext9SLO is the p99 objective on latency inflation over a same-level warm
// hit — queue delay, snapshot pull, setup, and the cold execution penalty
// (demand faulting on a lazy DRAM restore), everything the fleet adds on
// top of the function's intrinsic warm run time. A warm hit inflates by
// ~0.5 ms, a TOSS cold start with a node-local snapshot by ~5-10 ms (the
// paper's point: tiered restores make cold starts cheap), a snapshot pull
// by ~25-35 ms, and a DRAM lazy-restore cold start by ~30-50 ms of demand
// faults — so the objective tolerates a rare pull but is breached by
// queueing, by routers that keep scattering cold starts, and by fleets too
// small in warm capacity to avoid them. ext9Horizon is each run's arrival
// horizon.
const (
	ext9SLO     = 50 * simtime.Millisecond
	ext9Horizon = 30 * simtime.Second
	// ext9Warmup excludes the initial fill from the percentile: every fleet
	// must pull each snapshot once no matter how it routes, so "sustained"
	// is judged on steady state, where pulls recur only if the router keeps
	// scattering cold starts across nodes that evicted the snapshot.
	ext9Warmup = 5 * simtime.Second
)

// ext9InflationP99 returns the p99 of per-invocation latency inflation over
// a warm hit, across the steady-state window (arrivals past warmup).
func ext9InflationP99(rep *cluster.Report, warmup simtime.Duration) simtime.Duration {
	recs := &rep.Records
	infl := make([]simtime.Duration, 0, recs.Len())
	for i := 0; i < recs.Len(); i++ {
		if recs.Arrival(i) < warmup {
			continue
		}
		infl = append(infl, recs.Latency(i)-recs.WarmExec(i))
	}
	return stats.NearestRankInPlace(infl, 99)
}

// ext9Fleet is the hardware ext9 and ext10 compare: each function's
// measured TOSS and DRAM cost profile, the equal-cost host pair sized from
// them, and the snapshot store.
type ext9Fleet struct {
	toss, dram         map[string]cluster.FnProfile
	tossHost, dramHost fleet.HostSpec
	disk               int64
}

// ext9Sizing measures ext9Funcs once per mechanism through the single-host
// machinery (cluster.Profile) and sizes the fleet from the profiles. Each
// node holds roughly three quarters of the function set warm (so the fleet
// as a whole can, but any single node cannot), and the equal-cost DRAM-only
// host converts the tiered host's slow-tier budget to DRAM at the suite's
// price ratio — the paper's §I trade expressed as a fleet purchase. The
// snapshot store holds ~70% of the set: a node's affinity share (its
// rendezvous-primary functions) fits, the full rotation a scattering router
// forces through every node does not — so rr re-pulls in steady state while
// affinity stops after the initial fill.
func (s *Suite) ext9Sizing() (ext9Fleet, error) {
	scfg := sched.DefaultConfig()
	scfg.Core = s.Core
	scfg.Mechanism = sched.MechTOSS
	toss, err := cluster.Profile(scfg, ext9Funcs)
	if err != nil {
		return ext9Fleet{}, err
	}
	scfg.Mechanism = sched.MechDRAM
	dram, err := cluster.Profile(scfg, ext9Funcs)
	if err != nil {
		return ext9Fleet{}, err
	}
	var fastSum, slowSum, fastMax, slowMax, dramMax, snapSum, snapMax int64
	for _, fn := range ext9Funcs {
		p := toss[fn]
		fast, slow := p.FastPages*guest.PageSize, p.SlowPages*guest.PageSize
		fastSum += fast
		slowSum += slow
		fastMax = max(fastMax, fast)
		slowMax = max(slowMax, slow)
		dramMax = max(dramMax, dram[fn].FastPages*guest.PageSize)
		snapSum += p.SnapshotBytes
		snapMax = max(snapMax, p.SnapshotBytes)
	}
	tossHost := fleet.HostSpec{
		FastBytes: max(fastSum*3/4, fastMax),
		SlowBytes: max(slowSum*3/4, slowMax),
	}
	slowPerFast := s.Core.Cost.CostSlow / s.Core.Cost.CostFast
	dramHost := fleet.HostSpec{
		FastBytes: max(tossHost.FastBytes+int64(slowPerFast*float64(tossHost.SlowBytes)), dramMax),
	}
	return ext9Fleet{toss: toss, dram: dram, tossHost: tossHost, dramHost: dramHost,
		disk: max(snapSum*7/10, snapMax)}, nil
}

// recordFleet files one cell's decision log in the suite's fleet sink. A
// cell with no sustained run has no report and records nothing.
func (s *Suite) recordFleet(cell string, rep *cluster.Report) {
	if rep != nil {
		s.FleetSink.Record(cell, fleetobs.DecisionLog(rep, cell))
	}
}

// ext9Sustained walks the rate ladder and returns the highest offered rate
// (inv/s) whose p99 meets the SLO, with that run's report. A nil report
// means even the lowest rung missed the objective. With cfg.Trace set, the
// report carries its run's decision trace, so the exported decision log
// explains exactly the run the table quotes.
func ext9Sustained(cfg cluster.Config, profiles map[string]cluster.FnProfile, proc workload.Process, seed int64) (int64, *cluster.Report, error) {
	var bestRate int64
	var best *cluster.Report
	for _, rate := range ext9Rates {
		src, err := workload.NewStream(workload.ArrivalsConfig{
			Process:   proc,
			Horizon:   ext9Horizon,
			MeanIAT:   simtime.Second / simtime.Duration(rate),
			Functions: ext9Funcs,
			Seed:      seed,
			// Softer crowds than the default 8x so the lowest rungs are
			// servable at all — the sweep grades where each fleet collapses.
			FlashFactor: 4,
		})
		if err != nil {
			return 0, nil, err
		}
		cl, err := cluster.New(cfg, profiles)
		if err != nil {
			return 0, nil, err
		}
		rep, err := cl.RunStream(src)
		if err != nil {
			return 0, nil, err
		}
		if ext9InflationP99(rep, ext9Warmup) > ext9SLO {
			break // offered load only grows up the ladder
		}
		bestRate, best = rate, rep
	}
	return bestRate, best, nil
}

// ExtClusterScaling sweeps fleet size x routing policy x arrival process
// over the cluster simulator (internal/cluster) and reports the sustained
// fleet-wide invocation rate at a p99 warm-hit-inflation SLO for a tiered
// (TOSS) fleet versus an equal-cost DRAM-only fleet. Function costs are measured
// once per mechanism through the single-host machinery (cluster.Profile);
// every swept cell is then a pure, deterministic event-loop run, so the
// table is byte-identical across runs and pool sizes.
func ExtClusterScaling(s *Suite) (*Table, error) {
	t := &Table{
		ID: "ext9",
		Title: fmt.Sprintf("Cluster scaling: sustained inv/s at p99 inflation <= %v, TOSS fleet vs equal-cost DRAM fleet",
			ext9SLO.Std()),
		Header: []string{"nodes", "router", "arrival", "toss inv/s", "toss p99 infl (ms)", "toss cold %",
			"dram inv/s", "dram cold %", "toss/dram"},
	}

	// Measure once per mechanism; the sweep below only does arithmetic.
	hw, err := s.ext9Sizing()
	if err != nil {
		return nil, err
	}

	type cell struct {
		nodes  int
		router cluster.Policy
		proc   workload.Process
	}

	// baseConfig wires one cell's fleet. With an attribution collector on
	// the suite (tossctl -xray), every cluster invocation's budget carries
	// the cell's identity — node count, policy, arrival process, mechanism
	// — in its label tag, so `tossctl report` names the exact cell a cluster
	// regression lives in.
	baseConfig := func(hosts []fleet.HostSpec, c cell, mech string) cluster.Config {
		return cluster.Config{
			Hosts:           hosts,
			Cores:           16,
			DiskBytes:       hw.disk,
			PullBytesPerSec: 2 << 30,
			ResumeCost:      500 * simtime.Microsecond,
			Router:          c.router,
			Cost:            s.Core.Cost,
			XRay:            s.Core.VM.XRay,
			XRayTag:         fmt.Sprintf("%dn/%s/%s/%s", c.nodes, c.router, c.proc, mech),
			Trace:           s.FleetSink != nil,
			// No SLO: the objective here is on warm-hit inflation, which
			// ext9InflationP99 computes from the records directly.
		}
	}
	var cells []cell
	for _, nodes := range []int{2, 4} {
		for _, router := range cluster.Policies() {
			for _, proc := range []workload.Process{workload.ProcPoisson, workload.ProcFlash} {
				cells = append(cells, cell{nodes: nodes, router: router, proc: proc})
			}
		}
	}
	type result struct {
		tossRate, dramRate int64
		tossP99            float64
		tossCold, dramCold float64
		perNode            []cluster.NodeRouterStats
	}
	results, err := par.Map(s.Pool(), cells, func(_ int, c cell) (result, error) {
		seed := s.BaseSeed*1000 + int64(c.proc) + 1
		tossRate, tossRep, err := ext9Sustained(
			baseConfig(hw.tossHost.Hosts(c.nodes), c, "toss"), hw.toss, c.proc, seed)
		if err != nil {
			return result{}, err
		}
		dramRate, dramRep, err := ext9Sustained(
			baseConfig(hw.dramHost.Hosts(c.nodes), c, "dram"), hw.dram, c.proc, seed)
		if err != nil {
			return result{}, err
		}
		cellName := fmt.Sprintf("ext9/%dn/%s/%s", c.nodes, c.router, c.proc)
		s.recordFleet(cellName+"/toss", tossRep)
		s.recordFleet(cellName+"/dram", dramRep)
		res := result{tossRate: tossRate, dramRate: dramRate}
		if tossRep != nil {
			res.tossP99 = float64(ext9InflationP99(tossRep, ext9Warmup)) / float64(simtime.Millisecond)
			res.tossCold = tossRep.ColdFraction() * 100
			res.perNode = tossRep.Router.PerNode
		}
		if dramRep != nil {
			res.dramCold = dramRep.ColdFraction() * 100
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	byCell := make(map[cell]result, len(cells))
	for i, c := range cells {
		r := results[i]
		byCell[c] = r
		ratio := "inf"
		if r.dramRate > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(r.tossRate)/float64(r.dramRate))
		}
		t.AddRow(
			fmt.Sprintf("%d", c.nodes),
			c.router.String(),
			c.proc.String(),
			fmt.Sprintf("%d", r.tossRate),
			fmt.Sprintf("%.1f", r.tossP99),
			fmt.Sprintf("%.1f%%", r.tossCold),
			fmt.Sprintf("%d", r.dramRate),
			fmt.Sprintf("%.1f%%", r.dramCold),
			ratio)
	}

	// Snapshot affinity beats round-robin where cold starts dominate (flash
	// crowds): in sustained rate, or failing a strict rate win, in
	// cold-start fraction at the shared rate. The tiered fleet sustains at
	// least the equal-cost DRAM fleet's rate everywhere.
	affinityHolds, tossHolds := true, true
	for _, nodes := range []int{2, 4} {
		rr := byCell[cell{nodes, cluster.RouteRoundRobin, workload.ProcFlash}]
		aff := byCell[cell{nodes, cluster.RouteAffinity, workload.ProcFlash}]
		affinityHolds = affinityHolds &&
			(aff.tossRate > rr.tossRate || aff.tossRate == rr.tossRate && aff.tossCold < rr.tossCold)
	}
	for _, r := range results {
		tossHolds = tossHolds && r.tossRate >= r.dramRate
	}
	t.Claim("ext9.affinity_beats_rr", affinityHolds,
		"snapshot-affinity beats round-robin under cold-start-heavy flash arrivals at every fleet size (rate or, on rate ties, cold fraction)")
	t.Claim("ext9.toss_sustains_dram", tossHolds,
		"the TOSS fleet sustains >= the DRAM fleet's rate in every cell at equal memory cost (ratio %.1f:1)",
		s.Core.Cost.CostFast/s.Core.Cost.CostSlow)
	// Per-node router breakdown for the headline cell: where the affinity
	// router actually sent the cold-start-heavy flash crowds on the larger
	// fleet, at the best sustained rate (satellite view of Router.PerNode).
	if head := byCell[cell{4, cluster.RouteAffinity, workload.ProcFlash}]; len(head.perNode) > 0 {
		parts := make([]string, 0, len(head.perNode))
		for _, pn := range head.perNode {
			parts = append(parts, fmt.Sprintf("%s %d dec / %d hit / %d spill / %d shed",
				pn.Node, pn.Decisions, pn.AffinityHits, pn.Spills, pn.Sheds))
		}
		t.AddNote("per-node router at 4 nodes/affinity/flash (toss, best rate): %s", strings.Join(parts, "; "))
	}
	t.AddNote("0 inv/s means even the lowest rung (%d inv/s) breached the objective in steady state", ext9Rates[0])
	t.AddNote("hosts sized so one node keeps ~3/4 of the set warm; DRAM host converts the slow-tier budget to DRAM at the cost ratio")
	return t, nil
}

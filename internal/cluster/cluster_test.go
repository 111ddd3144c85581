package cluster

import (
	"fmt"
	"strings"
	"testing"

	"toss/internal/costmodel"
	"toss/internal/fleet"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
	"toss/internal/xray"
)

// testProfiles builds synthetic per-function profiles with footprints the
// tests control exactly: 16 MB fast + 192 MB slow per warm VM, ~80 ms cold
// setup, level-scaled exec. Real measured profiles get their own test
// (TestProfileMeasures); the event-loop tests want precise capacity
// pressure, not microVM realism.
func testProfiles(fns ...string) map[string]FnProfile {
	out := make(map[string]FnProfile, len(fns))
	for i, fn := range fns {
		p := FnProfile{
			Name:      fn,
			FastPages: 4096,  // 16 MB
			SlowPages: 49152, // 192 MB
		}
		for lv := 0; lv < 4; lv++ {
			p.ColdSetup[lv] = 80 * simtime.Millisecond
			p.ColdExec[lv] = simtime.Duration(20+10*lv+2*i) * simtime.Millisecond
			p.WarmExec[lv] = simtime.Duration(8+4*lv+i) * simtime.Millisecond
		}
		p.SnapshotBytes = (p.FastPages + p.SlowPages) * 4096
		out[fn] = p
	}
	return out
}

var testFns = []string{"float_operation", "pyaes", "compress", "matmul"}

// testHost holds three of the four test VMs warm per node (48 MB fast /
// 600 MB slow against 16/192 MB footprints), so routing policy decides
// whether warm state thrashes.
func testHost() fleet.HostSpec {
	return fleet.HostSpec{FastBytes: 48 << 20, SlowBytes: 600 << 20}
}

func testConfig(nodes int, router Policy) Config {
	cfg := DefaultConfig(nodes)
	cfg.Hosts = testHost().Hosts(nodes)
	cfg.Cores = 4
	cfg.DiskBytes = 500 << 20 // two ~208 MB snapshots per node
	cfg.PullBytesPerSec = 1 << 30
	cfg.Router = router
	cfg.SLO = 150 * simtime.Millisecond
	return cfg
}

// testArrivals materializes a seeded 60 s stream, so tests can count it
// and replay it through several runs.
func testArrivals(t *testing.T, proc workload.Process, meanIAT simtime.Duration) []workload.ArrivalSpec {
	t.Helper()
	src, err := workload.NewStream(workload.ArrivalsConfig{
		Process:   proc,
		Horizon:   60 * simtime.Second,
		MeanIAT:   meanIAT,
		Functions: testFns,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var specs []workload.ArrivalSpec
	for a, ok := src.Next(); ok; a, ok = src.Next() {
		specs = append(specs, a)
	}
	return specs
}

// sliceSource replays a materialized schedule as a workload.Source.
type sliceSource struct {
	xs []workload.ArrivalSpec
	i  int
}

func (s *sliceSource) Next() (workload.ArrivalSpec, bool) {
	if s.i == len(s.xs) {
		return workload.ArrivalSpec{}, false
	}
	s.i++
	return s.xs[s.i-1], true
}

// renderReport serializes everything decision-dependent about a run so the
// determinism tests can compare byte-for-byte.
func renderReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "records=%d horizon=%d busy=%d pulls=%d pulltime=%d\n",
		rep.Records.Len(), int64(rep.Horizon), int64(rep.BusyCoreTime), rep.Pulls, int64(rep.PullTime))
	fmt.Fprintf(&b, "router=%+v peak=%d final=%d\n", rep.Router, rep.PeakNodes, rep.FinalNodes)
	recs := &rep.Records
	for i := 0; i < recs.Len(); i++ {
		fmt.Fprintf(&b, "%s %d %d %d %v\n",
			recs.Function(i), recs.Level(i), int64(recs.Arrival(i)), int64(recs.Latency(i)), recs.Cold(i))
	}
	for k := 0; k < recs.Len(); k++ {
		i := recs.Completed(k)
		fmt.Fprintf(&b, "done %d %s\n", int64(recs.Arrival(i)+recs.Latency(i)), recs.Function(i))
	}
	for _, ev := range rep.ScaleEvents {
		fmt.Fprintf(&b, "scale %d %s %s %.6f %.6f %d\n", int64(ev.At), ev.Action, ev.Node, ev.Util, ev.Burn, ev.Fleet)
	}
	for _, ns := range rep.Nodes {
		fmt.Fprintf(&b, "node %s inv=%d cold=%d busy=%d cache=%+v final=%v\n",
			ns.ID, ns.Invocations, ns.ColdStarts, int64(ns.Busy), ns.Cache, ns.Final)
	}
	return b.String()
}

// renderBudgets serializes a run's xray budgets in observation order: the
// fn@node label, segments and marks carry each invocation's node, route
// and time split, which Records does not keep.
func renderBudgets(buds []*xray.Budget) string {
	var b strings.Builder
	for _, bud := range buds {
		b.WriteString(bud.Label)
		for _, s := range bud.Segments {
			fmt.Fprintf(&b, " %s=%d", s.ID, int64(s.Dur))
		}
		for _, m := range bud.Marks {
			fmt.Fprintf(&b, " %s#%d", m.ID, m.N)
		}
		fmt.Fprintf(&b, " recorded=%d\n", int64(bud.Recorded()))
	}
	return b.String()
}

// runRendered runs cfg over arrivals with an xray collector attached and
// renders the report followed by every invocation's budget.
func runRendered(cfg Config, arrivals []workload.ArrivalSpec) (string, error) {
	col := &xray.Collector{}
	cfg.XRay = col
	c, err := New(cfg, testProfiles(testFns...))
	if err != nil {
		return "", err
	}
	rep, err := c.RunStream(&sliceSource{xs: arrivals})
	if err != nil {
		return "", err
	}
	buds := col.Drain()
	if len(buds) != rep.Records.Len() {
		return "", fmt.Errorf("%d budgets for %d invocations", len(buds), rep.Records.Len())
	}
	return renderReport(rep) + renderBudgets(buds), nil
}

func runOnce(t *testing.T, cfg Config, arrivals []workload.ArrivalSpec) *Report {
	t.Helper()
	c, err := New(cfg, testProfiles(testFns...))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunStream(&sliceSource{xs: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestClusterDeterminism runs the same fleet serially, repeatedly, and on a
// 4-worker pool, and requires byte-identical reports and per-invocation
// budgets — the property ext9 and the CI serial-vs-parallel check stand on.
func TestClusterDeterminism(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 40*simtime.Millisecond)
	cfg := testConfig(3, RouteAffinity)
	cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 6}

	base, err := runRendered(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		got, err := runRendered(cfg, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("run %d differs from first run", run)
		}
	}
	rendered, err := par.Map(par.New(4), make([]struct{}, 8), func(i int, _ struct{}) (string, error) {
		return runRendered(cfg, arrivals)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rendered {
		if r != base {
			t.Fatalf("parallel worker %d produced a different report", i)
		}
	}
}

// TestAffinityBeatsRoundRobin pins the tentpole's headline claim: on
// cold-start-heavy flash-crowd traffic, snapshot-affinity routing holds
// warm state and snapshot residency together and beats round-robin on both
// cold-start fraction and tail latency.
func TestAffinityBeatsRoundRobin(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 60*simtime.Millisecond)
	aff := runOnce(t, testConfig(4, RouteAffinity), arrivals)
	rr := runOnce(t, testConfig(4, RouteRoundRobin), arrivals)

	if aff.ColdFraction() >= rr.ColdFraction() {
		t.Errorf("affinity cold fraction %.3f not below round-robin %.3f", aff.ColdFraction(), rr.ColdFraction())
	}
	if ap, rp := aff.LatencyPercentile(99), rr.LatencyPercentile(99); ap >= rp {
		t.Errorf("affinity p99 %v not below round-robin %v", ap, rp)
	}
	if aff.Pulls >= rr.Pulls {
		t.Errorf("affinity pulled %d snapshots, round-robin %d — affinity should pull fewer", aff.Pulls, rr.Pulls)
	}
	if aff.Router.AffinityHits == 0 {
		t.Error("affinity routing recorded no affinity hits")
	}
}

// TestLeastLoadedSpreadsQueueing sanity-checks the third policy: under
// uniform traffic it should not be catastrophically worse than round-robin
// on queueing, and every node should see work.
func TestLeastLoadedSpreadsQueueing(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcPoisson, 30*simtime.Millisecond)
	rep := runOnce(t, testConfig(3, RouteLeastLoaded), arrivals)
	for _, ns := range rep.Nodes {
		if ns.Invocations == 0 {
			t.Errorf("node %s received no invocations under least-loaded", ns.ID)
		}
	}
	if rep.Router.Decisions != int64(len(arrivals)) {
		t.Errorf("router decisions %d != arrivals %d", rep.Router.Decisions, len(arrivals))
	}
}

// TestAutoscaler drives a flash-crowd at a small fleet with autoscaling on
// and asserts the fleet grows under load, shrinks back when the burst
// passes, and that the decision log replays identically.
func TestAutoscaler(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 25*simtime.Millisecond)
	cfg := testConfig(2, RouteAffinity)
	cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}

	rep := runOnce(t, cfg, arrivals)
	if len(rep.ScaleEvents) == 0 {
		t.Fatal("autoscaler made no decisions under flash-crowd load")
	}
	ups, downs := 0, 0
	for _, ev := range rep.ScaleEvents {
		switch ev.Action {
		case "up":
			ups++
		case "down":
			downs++
		default:
			t.Fatalf("unknown scale action %q", ev.Action)
		}
	}
	if ups == 0 {
		t.Error("fleet never scaled up under flash-crowd load")
	}
	if downs == 0 {
		t.Error("fleet never drained back down after the bursts")
	}
	if rep.PeakNodes <= 2 {
		t.Errorf("peak fleet size %d never exceeded the initial 2 nodes", rep.PeakNodes)
	}
	if rep.PeakNodes > 8 {
		t.Errorf("peak fleet size %d exceeded Max=8", rep.PeakNodes)
	}
	if rep.FinalNodes < 2 {
		t.Errorf("final fleet size %d below Min=2", rep.FinalNodes)
	}

	again := runOnce(t, cfg, arrivals)
	if fmt.Sprintf("%+v", rep.ScaleEvents) != fmt.Sprintf("%+v", again.ScaleEvents) {
		t.Error("autoscaler decisions not reproducible across identical runs")
	}
}

// TestRendezvousStability checks the affinity hash: rankings are
// deterministic, and removing one node only remaps the functions that
// ranked it first.
func TestRendezvousStability(t *testing.T) {
	c := &Cluster{nodes: make([]*node, 5)}
	for i := range c.nodes {
		c.nodes[i] = &node{id: fmt.Sprintf("n%02d", i+1)}
	}
	primary := func(fn string, idxs []int32) string { return c.nodes[c.buildRanking(fn, idxs, nil)[0]].id }

	all := []int32{0, 1, 2, 3, 4}
	fns := []string{"float_operation", "pyaes", "compress", "matmul", "pagerank", "linpack", "lr_serving"}
	before := map[string]string{}
	for _, fn := range fns {
		before[fn] = primary(fn, all)
		if got := primary(fn, []int32{4, 3, 2, 1, 0}); got != before[fn] {
			t.Fatalf("rendezvous ranking for %s depends on node order", fn)
		}
	}
	removed := c.nodes[2].id
	smaller := []int32{0, 1, 3, 4}
	for _, fn := range fns {
		after := primary(fn, smaller)
		if before[fn] != removed && after != before[fn] {
			t.Errorf("%s moved from %s to %s though its primary %s was not removed", fn, before[fn], after, before[fn])
		}
	}
}

// TestClusterValidate exercises the configuration rejection paths.
func TestClusterValidate(t *testing.T) {
	good := testConfig(2, RouteAffinity)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no hosts", func(c *Config) { c.Hosts = nil }},
		{"bad host", func(c *Config) { c.Hosts = []fleet.HostSpec{{FastBytes: 0}} }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero disk", func(c *Config) { c.DiskBytes = 0 }},
		{"zero pull bandwidth", func(c *Config) { c.PullBytesPerSec = 0 }},
		{"negative resume", func(c *Config) { c.ResumeCost = -1 }},
		{"zero cost model", func(c *Config) { c.Cost = costmodel.Model{} }},
		{"slow tier above fast", func(c *Config) { c.Cost = costmodel.Model{CostFast: 0.4, CostSlow: 1} }},
		{"autoscaler bounds", func(c *Config) {
			c.Autoscale = Autoscaler{Enabled: true, Tick: simtime.Second, Min: 3, Max: 2}
		}},
		{"initial outside bounds", func(c *Config) {
			c.Autoscale = Autoscaler{Enabled: true, Tick: simtime.Second, Min: 4, Max: 8}
		}},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if _, err := New(cfg, testProfiles(testFns...)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("empty profiles: expected error")
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted unknown name")
	}
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	c, err := New(good, testProfiles(testFns...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunStream(&sliceSource{xs: []workload.ArrivalSpec{{Function: "unprofiled"}}}); err == nil {
		t.Error("unprofiled arrival: expected error")
	}
	c, err = New(good, testProfiles(testFns...))
	if err != nil {
		t.Fatal(err)
	}
	backwards := []workload.ArrivalSpec{{At: 2 * simtime.Second, Function: testFns[0]}, {At: simtime.Second, Function: testFns[0]}}
	if _, err := c.RunStream(&sliceSource{xs: backwards}); err == nil {
		t.Error("arrivals out of time order: expected error")
	}
}

// LatencyPercentile returns the p-th percentile end-to-end latency
// (nearest-rank convention).
func (r *Report) LatencyPercentile(p float64) simtime.Duration {
	n := r.Records.Len()
	if n == 0 {
		return 0
	}
	ls := make([]simtime.Duration, n)
	for i := range ls {
		ls[i] = r.Records.Latency(i)
	}
	return stats.NearestRankInPlace(ls, p)
}

// TestArrivalPrecedesSameTimeCompletions pins the event order at a shared
// instant: an arrival is routed before the completions due at its time, so
// it sees their cores as still busy. Four arrivals fill the affinity
// primary's four cores; three of them are warm and finish together, and a
// fifth arrival due at exactly that instant finds the primary full and
// spills to the other node, where it cold-starts.
func TestArrivalPrecedesSameTimeCompletions(t *testing.T) {
	cfg := testConfig(2, RouteAffinity)
	fn := testFns[0]
	warm := cfg.ResumeCost + testProfiles(fn)[fn].WarmExec[0]
	arrivals := []workload.ArrivalSpec{
		{Function: fn}, {Function: fn}, {Function: fn}, {Function: fn},
		{At: warm, Function: fn},
	}
	rep := runOnce(t, cfg, arrivals)
	for i := 1; i < 4; i++ {
		if rep.Records.Cold(i) || rep.Records.Latency(i) != warm {
			t.Fatalf("record %d: cold=%v latency %v, want a warm %v", i, rep.Records.Cold(i), rep.Records.Latency(i), warm)
		}
	}
	if rep.Router.Spills != 1 || !rep.Records.Cold(4) {
		t.Fatalf("same-time arrival: spills=%d cold=%v, want it spilled off the full primary and cold-started",
			rep.Router.Spills, rep.Records.Cold(4))
	}
}

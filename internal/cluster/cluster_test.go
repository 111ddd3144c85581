package cluster

import (
	"fmt"
	"strings"
	"testing"

	"toss/internal/fleet"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/workload"
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
	cfg.BurnWindow = 5 * simtime.Second
	return cfg
}

func testArrivals(t *testing.T, proc workload.Process, meanIAT simtime.Duration) []workload.ArrivalSpec {
	t.Helper()
	specs, err := workload.Arrivals(workload.ArrivalsConfig{
		Process:   proc,
		Horizon:   60 * simtime.Second,
		MeanIAT:   meanIAT,
		Functions: testFns,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// renderReport serializes everything decision-dependent about a run so the
// determinism tests can compare byte-for-byte.
func renderReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "records=%d horizon=%d busy=%d pulls=%d pulltime=%d\n",
		rep.Records.Len(), int64(rep.Horizon), int64(rep.BusyCoreTime), rep.Pulls, int64(rep.PullTime))
	fmt.Fprintf(&b, "router=%+v peak=%d final=%d\n", rep.Router, rep.PeakNodes, rep.FinalNodes)
	for i := 0; i < rep.Records.Len(); i++ {
		r := rep.Records.At(i)
		fmt.Fprintf(&b, "%s %s %s %d %d %d %d %d %v\n",
			r.Function, r.Node, r.Route, int64(r.Arrival),
			int64(r.QueueDelay), int64(r.Pull), int64(r.Setup), int64(r.Exec), r.Cold)
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

func runOnce(t *testing.T, cfg Config, arrivals []workload.ArrivalSpec) *Report {
	t.Helper()
	c, err := New(cfg, testProfiles(testFns...))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestClusterDeterminism runs the same fleet serially, repeatedly, and on a
// 4-worker pool, and requires byte-identical reports — the property ext9
// and the CI serial-vs-parallel check stand on.
func TestClusterDeterminism(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 40*simtime.Millisecond)
	cfg := testConfig(3, RouteAffinity)
	cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 6}

	base := renderReport(runOnce(t, cfg, arrivals))
	for run := 0; run < 2; run++ {
		if got := renderReport(runOnce(t, cfg, arrivals)); got != base {
			t.Fatalf("run %d differs from first run", run)
		}
	}
	rendered, err := par.Map(par.New(4), make([]struct{}, 8), func(i int, _ struct{}) (string, error) {
		c, err := New(cfg, testProfiles(testFns...))
		if err != nil {
			return "", err
		}
		rep, err := c.Run(arrivals)
		if err != nil {
			return "", err
		}
		return renderReport(rep), nil
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
	nodes := make([]*node, 5)
	for i := range nodes {
		nodes[i] = &node{id: fmt.Sprintf("n%02d", i+1)}
	}
	primary := func(fn string, ns []*node) string { return rendezvousRank(fn, ns)[0].id }

	fns := []string{"float_operation", "pyaes", "compress", "matmul", "pagerank", "linpack", "lr_serving"}
	before := map[string]string{}
	for _, fn := range fns {
		before[fn] = primary(fn, nodes)
		if got := primary(fn, nodes); got != before[fn] {
			t.Fatalf("rendezvous ranking for %s not deterministic", fn)
		}
	}
	removed := nodes[2].id
	smaller := append(append([]*node{}, nodes[:2]...), nodes[3:]...)
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
	if _, err := c.Run([]workload.ArrivalSpec{{Function: "unprofiled"}}); err == nil {
		t.Error("unprofiled arrival: expected error")
	}
}

package cluster

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"toss/internal/fleetobs"
	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// TestClusterBudgetsBalance pins the cluster x-ray invariant at the unit
// level: every routed invocation's budget decomposes into the causally
// ordered node.queue / snapshot.pull / exec.* segments and Sum() equals the
// latency the record log holds for the same invocation.
func TestClusterBudgetsBalance(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 40*simtime.Millisecond)
	col := &xray.Collector{}
	cfg := testConfig(3, RouteAffinity)
	cfg.XRay = col
	cfg.XRayTag = "3n/affinity/flash/toss"
	rep := runOnce(t, cfg, arrivals)

	buds := col.Drain()
	if len(buds) != rep.Records.Len() {
		t.Fatalf("%d budgets for %d records", len(buds), rep.Records.Len())
	}
	for _, b := range buds {
		if b.Sum() != b.Recorded() {
			t.Fatalf("budget %q unbalanced: Sum %v != Recorded %v", b.Label, b.Sum(), b.Recorded())
		}
		if !slices.ContainsFunc(b.Segments, func(s xray.Segment) bool { return s.ID == xray.SegExecRun && s.Dur > 0 }) {
			t.Fatalf("budget %q missing exec.run", b.Label)
		}
	}
	// Budgets are observed at dispatch, in record order: each one's label
	// and sealed total match its record.
	for i, b := range buds {
		if fn := rep.Records.Function(i); !strings.HasPrefix(b.Label, fn+"@") {
			t.Fatalf("budget %d label %q, record function %q", i, b.Label, fn)
		}
		if got, want := b.Recorded(), rep.Records.Latency(i); got != want {
			t.Fatalf("budget %d recorded %v != record latency %v", i, got, want)
		}
	}
	tagged := buds[0].Label
	if want := "/cluster/3n/affinity/flash/toss"; !bytes.Contains([]byte(tagged), []byte(want)) {
		t.Fatalf("XRayTag missing from label %q", tagged)
	}
}

// TestRouterStatsPerNode checks the per-node breakdown: counters sum to the
// fleet-wide totals, rows are in id order, and saturating traffic produces
// sheds that are counted separately from spills.
func TestRouterStatsPerNode(t *testing.T) {
	// 2 nodes x 4 cores at a 10ms mean IAT saturates the fleet, forcing
	// spills and sheds alongside primary hits.
	arrivals := testArrivals(t, workload.ProcFlash, 10*simtime.Millisecond)
	rep := runOnce(t, testConfig(2, RouteAffinity), arrivals)

	var dec, hits, spills, sheds int64
	prev := ""
	for _, pn := range rep.Router.PerNode {
		if pn.Node <= prev {
			t.Fatalf("PerNode not sorted: %q after %q", pn.Node, prev)
		}
		prev = pn.Node
		dec += pn.Decisions
		hits += pn.AffinityHits
		spills += pn.Spills
		sheds += pn.Sheds
	}
	if dec != rep.Router.Decisions || hits != rep.Router.AffinityHits ||
		spills != rep.Router.Spills || sheds != rep.Router.Sheds {
		t.Fatalf("per-node sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
			dec, hits, spills, sheds,
			rep.Router.Decisions, rep.Router.AffinityHits, rep.Router.Spills, rep.Router.Sheds)
	}
	if rep.Router.Sheds == 0 {
		t.Error("saturating traffic produced no sheds")
	}
	if rep.Router.Decisions != int64(len(arrivals)) {
		t.Fatalf("decisions %d != arrivals %d", rep.Router.Decisions, len(arrivals))
	}
}

// TestFleetObsTrace checks the decision trace against the run it observed:
// one route event per arrival with candidate rankings, scale actions
// mirroring the report's ScaleEvents, grid samples on the cadence, and a
// byte-identical decision log across reruns.
func TestFleetObsTrace(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 25*simtime.Millisecond)
	run := func() (*Report, *fleetobs.Recorder) {
		cfg := testConfig(2, RouteAffinity)
		cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}
		fr := fleetobs.New(fleetobs.Config{Interval: simtime.Second})
		cfg.FleetObs = fr
		return runOnce(t, cfg, arrivals), fr
	}
	rep, fr := run()

	var routes, scales int
	for _, e := range fr.Events() {
		switch {
		case e.Route != nil:
			routes++
			if len(e.Route.Candidates) == 0 {
				t.Fatal("route event missing candidate ranking")
			}
			if e.Route.Node == "" || e.Route.Reason == "" {
				t.Fatalf("incomplete route event: %+v", e.Route)
			}
		case e.Scale != nil:
			scales++
		}
	}
	if routes != len(arrivals) {
		t.Fatalf("%d route events for %d arrivals", routes, len(arrivals))
	}
	if scales != len(rep.ScaleEvents) {
		t.Fatalf("%d scale events in trace, %d in report", scales, len(rep.ScaleEvents))
	}
	if len(fr.Samples()) == 0 {
		t.Fatal("no grid samples recorded")
	}
	v := fr.View()
	var inv int64
	for _, n := range v.Nodes {
		inv += n.Invocations
	}
	if inv != int64(rep.Records.Len()) {
		t.Fatalf("view counted %d invocations, report has %d", inv, rep.Records.Len())
	}

	var a, b bytes.Buffer
	if err := fr.WriteDecisionLog(&a); err != nil {
		t.Fatal(err)
	}
	_, fr2 := run()
	if err := fr2.WriteDecisionLog(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("decision log not byte-identical across identical runs")
	}
	var ct bytes.Buffer
	if err := fr.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	if ct.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestScaleEventsIdenticalUnderObservers mirrors PR 4's zero-fault-plan
// identity test at fleet scale: attaching the full observability stack —
// xray collector and fleetobs recorder — must not perturb a single routing
// or scaling decision. The whole report renders byte-identical with and
// without observers.
func TestScaleEventsIdenticalUnderObservers(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 25*simtime.Millisecond)
	cfg := testConfig(2, RouteAffinity)
	cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}

	bare := runOnce(t, cfg, arrivals)
	if len(bare.ScaleEvents) == 0 {
		t.Fatal("test traffic produced no scale events; identity check would be vacuous")
	}

	observed := cfg
	observed.XRay = &xray.Collector{}
	observed.FleetObs = fleetobs.New(fleetobs.Config{})
	rep := runOnce(t, observed, arrivals)

	if got, want := renderReport(rep), renderReport(bare); got != want {
		t.Fatal("report differs with observers attached")
	}
	if len(observed.FleetObs.Events()) == 0 {
		t.Fatal("fleetobs observed nothing")
	}

	// Per invocation (node, route, time split): the fleetobs recorder must
	// not move a single budget against an xray-only run.
	xrayOnly, err := runRendered(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	withFleet := cfg
	withFleet.FleetObs = fleetobs.New(fleetobs.Config{})
	both, err := runRendered(withFleet, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if both != xrayOnly {
		t.Fatal("budgets differ with the fleetobs recorder attached")
	}
}

package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// TestFleetObsTrace checks a traced run's decision trace against the run
// it records: one decision per arrival with its candidate ranking, tallies
// that match the router's per-node counters, each node's latencies matching
// its invocation count and the record log, grid samples on the cadence, and
// a byte-identical trace across reruns.
func TestFleetObsTrace(t *testing.T) {
	arrivals := testArrivals(t, workload.ProcFlash, 25*simtime.Millisecond)
	run := func() *Report {
		cfg := testConfig(2, RouteAffinity)
		cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}
		cfg.Trace = true
		return runOnce(t, cfg, arrivals)
	}
	rep := run()
	tr := rep.Trace
	if tr == nil {
		t.Fatal("traced run has no trace")
	}
	if len(tr.Decisions) != len(arrivals) {
		t.Fatalf("%d decisions for %d arrivals", len(tr.Decisions), len(arrivals))
	}
	if len(rep.ScaleEvents) == 0 {
		t.Fatal("test traffic produced no scale events")
	}
	perNode := map[string]NodeRouterStats{}
	for _, d := range tr.Decisions {
		if len(d.Candidates) == 0 || d.Node == "" || d.Reason == "" {
			t.Fatalf("incomplete decision: %+v", d)
		}
		st := perNode[d.Node]
		st.Node = d.Node
		st.Decisions++
		if d.Hit {
			st.AffinityHits++
		}
		perNode[d.Node] = st
	}
	for _, pn := range rep.Router.PerNode {
		if got := perNode[pn.Node]; got.Decisions != pn.Decisions || got.AffinityHits != pn.AffinityHits {
			t.Fatalf("node %s: trace tallies %+v, router counted %+v", pn.Node, got, pn)
		}
	}

	if len(tr.Latencies) != len(rep.Nodes) {
		t.Fatalf("%d latency lists for %d nodes", len(tr.Latencies), len(rep.Nodes))
	}
	var traced []simtime.Duration
	for i, ns := range rep.Nodes {
		if int64(len(tr.Latencies[i])) != ns.Invocations {
			t.Fatalf("node %s: %d latencies for %d invocations", ns.ID, len(tr.Latencies[i]), ns.Invocations)
		}
		traced = append(traced, tr.Latencies[i]...)
	}
	logged := make([]simtime.Duration, rep.Records.Len())
	for i := range logged {
		logged[i] = rep.Records.Latency(i)
	}
	slices.Sort(traced)
	slices.Sort(logged)
	if !slices.Equal(traced, logged) {
		t.Fatal("per-node latencies differ from the record log's")
	}

	if len(tr.Samples) == 0 {
		t.Fatal("no grid samples recorded")
	}
	at := simtime.Duration(0)
	for i, s := range tr.Samples {
		if s.At != at && s.At != at+SampleInterval || i == 0 && s.At != 0 {
			t.Fatalf("sample %d at %v after a boundary at %v", i, s.At, at)
		}
		at = s.At
	}

	if again := run(); !reflect.DeepEqual(again.Trace, tr) {
		t.Fatal("trace not identical across identical runs")
	}
}

// TestRouterCountsMatchTrace holds the router's per-node spill and shed
// counts to the decision trace and to the xray marks. A spill is a decision
// whose node is not its ranking's first candidate, the hash primary, so a
// shed diverted to another node is both; a shed is a decision with reason
// shed. Per node, the trace's tallies must equal Router.PerNode and the
// counts of the cluster.router.spill and cluster.router.shed marks on the
// node's budgets.
func TestRouterCountsMatchTrace(t *testing.T) {
	type counts struct{ spills, sheds int64 }
	var divertedSheds int64
	for _, proc := range []workload.Process{workload.ProcFlash, workload.ProcDiurnalFlash} {
		arrivals := testArrivals(t, proc, 10*simtime.Millisecond)
		for _, scale := range []bool{false, true} {
			cfg := testConfig(2, RouteAffinity)
			if scale {
				cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}
			}
			cfg.Trace = true
			col := &xray.Collector{}
			cfg.XRay = col
			rep := runOnce(t, cfg, arrivals)
			name := fmt.Sprintf("%s/autoscale=%v", proc, scale)

			traced := map[string]counts{}
			for _, d := range rep.Trace.Decisions {
				c := traced[d.Node]
				spill := d.Node != d.Candidates[0].Node
				if spill {
					c.spills++
				}
				if d.Reason == ReasonShed {
					c.sheds++
					if spill {
						divertedSheds++
					}
				}
				traced[d.Node] = c
			}
			marked := map[string]counts{}
			for _, b := range col.Drain() {
				node := strings.SplitN(strings.SplitN(b.Label, "@", 2)[1], "/", 2)[0]
				c := marked[node]
				for _, m := range b.Marks {
					switch m.ID {
					case xray.MarkRouterSpill:
						c.spills += m.N
					case xray.MarkRouterShed:
						c.sheds += m.N
					}
				}
				marked[node] = c
			}
			if len(rep.Router.PerNode) != len(traced) {
				t.Fatalf("%s: router counts %d nodes, the trace %d", name, len(rep.Router.PerNode), len(traced))
			}
			for _, pn := range rep.Router.PerNode {
				router := counts{pn.Spills, pn.Sheds}
				if traced[pn.Node] != router || marked[pn.Node] != router {
					t.Fatalf("%s: node %s spills/sheds: router %+v, trace %+v, marks %+v",
						name, pn.Node, router, traced[pn.Node], marked[pn.Node])
				}
			}
		}
	}
	if divertedSheds == 0 {
		t.Fatal("no shed left its hash primary; the spill rule is untested")
	}
}

// TestSampleBoundaries pins the grid sampler: the first boundary is t=0, and
// an event that jumps over several boundaries stamps the state after it at
// each one; time that crosses no boundary samples nothing.
func TestSampleBoundaries(t *testing.T) {
	cfg := testConfig(2, RouteAffinity)
	cfg.Trace = true
	fn := testFns[0]
	rep := runOnce(t, cfg, []workload.ArrivalSpec{{Function: fn}, {At: 3500 * simtime.Millisecond, Function: fn}})
	got := rep.Trace.Samples
	if len(got) != 8 {
		t.Fatalf("got %d samples, want 2 nodes x boundaries 0-3s", len(got))
	}
	for i, s := range got {
		if want := simtime.Duration(i/2) * simtime.Second; s.At != want || s.Node != rep.Nodes[i%2].ID {
			t.Fatalf("sample %d is %s at %v, want %s at %v", i, s.Node, s.At, rep.Nodes[i%2].ID, want)
		}
	}
	// The 3.5 s arrival crossed 1, 2 and 3 s: all three hold the state
	// after it was routed — one invocation running.
	for i := 2; i < 8; i += 2 {
		if held := got[i]; held.Running+got[i+1].Running != 1 {
			t.Fatalf("boundary %v holds %d+%d running, want the 3.5 s state", held.At, held.Running, got[i+1].Running)
		}
	}
}

// TestScaleEventsIdenticalUnderObservers mirrors the zero-fault-plan
// identity test at fleet scale: attaching the full observability stack —
// xray collector and the decision trace — must not perturb a single routing
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
	observed.Trace = true
	rep := runOnce(t, observed, arrivals)

	if got, want := renderReport(rep), renderReport(bare); got != want {
		t.Fatal("report differs with observers attached")
	}
	if len(rep.Trace.Decisions) == 0 {
		t.Fatal("the trace recorded nothing")
	}

	// Per invocation (node, route, time split): the trace must not move a
	// single budget against an xray-only run.
	xrayOnly, err := runRendered(cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	traced := cfg
	traced.Trace = true
	both, err := runRendered(traced, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if both != xrayOnly {
		t.Fatal("budgets differ with the trace on")
	}
}

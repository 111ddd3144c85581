package fleetobs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"toss/internal/cluster"
	"toss/internal/par"
	"toss/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden export files")

// sampleReport builds a small deterministic two-node traced run by hand:
// four routing decisions spanning every affinity reason with the router
// counters they make, one scale-up, and three sampling boundaries. Every
// golden file renders from this fixture.
func sampleReport() *cluster.Report {
	grid := func(at simtime.Duration, running1, queued1, running2 int) []cluster.NodeSample {
		return []cluster.NodeSample{
			{At: at, Node: "n01", Cores: 2, Running: running1, Queued: queued1,
				DiskUsed: 192 << 20, DiskCap: 1 << 30,
				FastUsed: 24 << 20, FastCap: 48 << 20,
				SlowUsed: 300 << 20, SlowCap: 1536 << 20, Alive: true},
			{At: at, Node: "n02", Cores: 2, Running: running2,
				DiskUsed: 64 << 20, DiskCap: 1 << 30,
				FastUsed: 8 << 20, FastCap: 48 << 20,
				SlowUsed: 100 << 20, SlowCap: 1536 << 20, Alive: true},
		}
	}
	var samples []cluster.NodeSample
	samples = append(samples, grid(0, 0, 0, 0)...)
	samples = append(samples, grid(simtime.Second, 2, 1, 1)...)
	samples = append(samples, grid(2*simtime.Second, 1, 0, 0)...)
	return &cluster.Report{
		// The shed onto n01 left its hash primary n02, so it is a spill too.
		Router: cluster.RouterStats{Decisions: 4, AffinityHits: 1, Spills: 2, Sheds: 1,
			PerNode: []cluster.NodeRouterStats{
				{Node: "n01", Decisions: 3, AffinityHits: 1, Spills: 1, Sheds: 1},
				{Node: "n02", Decisions: 1, Spills: 1},
			}},
		Nodes: []cluster.NodeStats{
			{ID: "n01", Invocations: 3, ColdStarts: 1},
			{ID: "n02", Invocations: 1, ColdStarts: 1},
		},
		ScaleEvents: []cluster.ScaleEvent{{
			At: 2 * simtime.Second, Action: "up", Node: "n03",
			Util: 0.9125, Burn: 0.125, Fleet: 3,
		}},
		Trace: &cluster.Trace{
			Decisions: []cluster.Decision{
				{At: 100 * simtime.Millisecond, Function: "pyaes", Node: "n01",
					Reason: cluster.ReasonAffinity, Hit: true,
					Candidates: []cluster.Candidate{{Node: "n01", Hit: true}, {Node: "n02", Inflight: 1}}},
				{At: 200 * simtime.Millisecond, Function: "pyaes", Node: "n02",
					Reason:     cluster.ReasonSpill,
					Candidates: []cluster.Candidate{{Node: "n01", Inflight: 2, Hit: true}, {Node: "n02", Inflight: 1}}},
				{At: 300 * simtime.Millisecond, Function: "compress", Node: "n01",
					Reason: cluster.ReasonShed,
					Candidates: []cluster.Candidate{
						{Node: "n02", Inflight: 2}, {Node: "n01", Inflight: 2, Hit: true},
					}},
				{At: 2100 * simtime.Millisecond, Function: "pyaes", Node: "n01",
					Reason: cluster.ReasonRoundRobin},
			},
			Samples: samples,
			Latencies: [][]simtime.Duration{
				{12 * simtime.Millisecond, 480 * simtime.Millisecond, 15 * simtime.Millisecond},
				{230 * simtime.Millisecond},
			},
		},
	}
}

func TestViewAggregates(t *testing.T) {
	v := view(sampleReport())
	if v == nil || len(v.Nodes) != 2 {
		t.Fatalf("want 2 node rows, got %+v", v)
	}
	n1 := v.Nodes[0]
	if n1.Node != "n01" || v.Nodes[1].Node != "n02" {
		t.Fatalf("node rows not in id order: %s, %s", n1.Node, v.Nodes[1].Node)
	}
	if n1.Invocations != 3 || n1.ColdStarts != 1 {
		t.Fatalf("n01 invocations/cold = %d/%d, want 3/1", n1.Invocations, n1.ColdStarts)
	}
	if n1.Decisions != 3 || n1.AffinityHits != 1 || n1.Sheds != 1 || n1.Spills != 1 {
		t.Fatalf("n01 router counters = %+v", n1)
	}
	if v.Nodes[1].Spills != 1 {
		t.Fatalf("n02 spills = %d, want 1", v.Nodes[1].Spills)
	}
	// Same nearest-rank convention as the cluster's reports: with 3
	// samples both p50 and p99 truncate to sorted index 1.
	if n1.P50 != 15*simtime.Millisecond || n1.P99 != 15*simtime.Millisecond {
		t.Fatalf("n01 p50/p99 = %v/%v", n1.P50, n1.P99)
	}
	if v.Nodes[1].P99 != 230*simtime.Millisecond {
		t.Fatalf("n02 p99 = %v", v.Nodes[1].P99)
	}
	if v.Decisions != 4 || v.Scales != 1 {
		t.Fatalf("view totals = %d decisions, %d scales", v.Decisions, v.Scales)
	}
	if len(n1.UtilHeat) != 3 || n1.UtilHeat[1] != 1.0 {
		t.Fatalf("n01 util heat = %v", n1.UtilHeat)
	}
	// Last boundary is 2s; the 2.1s decision pushes Now further.
	if v.Now != 2100*simtime.Millisecond {
		t.Fatalf("view now = %v", v.Now)
	}
}

// TestGoldenExports pins every rendering byte-for-byte; refresh with
// `go test ./internal/fleetobs -update` only if the change is intended.
func TestGoldenExports(t *testing.T) {
	r := sampleReport()
	goldens := []struct {
		file   string
		render func() string
	}{
		{"decision_log.jsonl", func() string {
			var b bytes.Buffer
			if err := WriteDecisionLog(&b, r); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"chrome_trace.json", func() string {
			var b bytes.Buffer
			if err := WriteChromeTrace(&b, r); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"fleet_view.txt", func() string { return RenderFleet(r, 0) }},
		{"fleet_view.json", func() string {
			var b bytes.Buffer
			if err := WriteFleetJSON(&b, r); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"fleet_view.html", func() string {
			var b bytes.Buffer
			if err := WriteFleetHTML(&b, r); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
	}
	for _, g := range goldens {
		got := g.render()
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden file (run with -update if the change is intended)\ngot:\n%s", g.file, got)
		}
	}
}

// untracedReports are the two shapes of a run without a trace: no report
// at all, and a report whose run had Config.Trace off (it still carries
// its scale actions).
func untracedReports() []*cluster.Report {
	return []*cluster.Report{nil, {ScaleEvents: sampleReport().ScaleEvents}}
}

// TestRenderEmptyViews: a nil report and a report without a trace render
// the empty banners.
func TestRenderEmptyViews(t *testing.T) {
	for _, rep := range untracedReports() {
		if !strings.Contains(RenderFleet(rep, 0), "no nodes observed") {
			t.Fatal("untraced run should render the empty banner")
		}
		var b bytes.Buffer
		if err := WriteFleetJSON(&b, rep); err != nil {
			t.Fatal(err)
		}
		if b.String() != "{\"schema_version\":1,\"nodes\":[]}\n" {
			t.Fatalf("untraced run JSON = %q", b.String())
		}
		b.Reset()
		if err := WriteFleetHTML(&b, rep); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "no fleet attached") {
			t.Fatal("untraced run HTML should render the empty banner")
		}
	}
}

// TestUntracedReportExportsNothing: a run without a trace has no fleet
// view, and its exports succeed empty: no decision-log line (its scale
// actions included) and a Chrome trace with no events.
func TestUntracedReportExportsNothing(t *testing.T) {
	for _, rep := range untracedReports() {
		if view(rep) != nil {
			t.Fatal("untraced run built a fleet view")
		}
		if log := DecisionLog(rep, "cell"); log != "" {
			t.Fatalf("untraced run tagged decision log = %q", log)
		}
		var b bytes.Buffer
		if err := WriteDecisionLog(&b, rep); err != nil || b.Len() != 0 {
			t.Fatalf("untraced run decision log = %q, %v", b.String(), err)
		}
		if err := WriteChromeTrace(&b, rep); err != nil {
			t.Fatal(err)
		}
		if want := "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n"; b.String() != want {
			t.Fatalf("untraced run Chrome trace = %q, want %q", b.String(), want)
		}
	}
}

// TestDecisionLogCellTag: a cell-tagged log leads every line with the
// cell, so the logs of many cells concatenate into one self-describing
// document; a nil report renders nothing.
func TestDecisionLogCellTag(t *testing.T) {
	log := DecisionLog(sampleReport(), "ext9/2n/affinity/flash/toss")
	lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines (4 decisions, 1 scale), got %d:\n%s", len(lines), log)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"cell":"ext9/2n/affinity/flash/toss","at_ns":`) {
			t.Fatalf("line not cell-tagged: %s", l)
		}
	}
	if DecisionLog(nil, "x") != "" {
		t.Fatal("nil report rendered a log")
	}
}

// TestDecisionLogTieOrder: a routing decision and an autoscaler action at
// the same instant log the decision first, the order the cluster loop makes
// them in (it routes an arrival before a tick due at the same time).
func TestDecisionLogTieOrder(t *testing.T) {
	rep := &cluster.Report{
		ScaleEvents: []cluster.ScaleEvent{{At: 2 * simtime.Second, Action: "up", Node: "n02"}},
		Trace: &cluster.Trace{Decisions: []cluster.Decision{
			{At: 2 * simtime.Second, Function: "fn", Node: "n01", Reason: cluster.ReasonAffinity},
			{At: 3 * simtime.Second, Function: "fn", Node: "n01", Reason: cluster.ReasonAffinity},
		}},
	}
	lines := strings.Split(DecisionLog(rep, ""), "\n")
	for i, want := range []string{`"at_ns":2000000000,"kind":"route"`, `"at_ns":2000000000,"kind":"scale"`, `"at_ns":3000000000,"kind":"route"`} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %s, want %s", i, lines[i], want)
		}
	}
}

// TestSinkDeterministic: cell-tagged decision logs recorded from
// concurrent cells in any order fold, through the cell sink, into the same
// bytes sorted by cell name; a nil sink is a no-op.
func TestSinkDeterministic(t *testing.T) {
	render := func(order []int) string {
		s := par.NewSink[string]()
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep := &cluster.Report{Trace: &cluster.Trace{Decisions: []cluster.Decision{{
					At:       simtime.Duration(i) * simtime.Millisecond,
					Function: "fn", Node: fmt.Sprintf("n%02d", i), Reason: cluster.ReasonAffinity,
				}}}}
				cell := fmt.Sprintf("cell-%02d", i)
				s.Record(cell, DecisionLog(rep, cell))
			}(i)
		}
		wg.Wait()
		return strings.Join(s.Sorted(), "")
	}
	a := render([]int{3, 1, 4, 2, 0})
	b := render([]int{0, 2, 4, 1, 3})
	if a != b {
		t.Fatalf("sink output depends on record order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"cell":"cell-00"`) {
		t.Fatalf("cell tag missing: %s", a)
	}
	if strings.Index(a, "cell-00") > strings.Index(a, "cell-04") {
		t.Fatal("cells not sorted by name")
	}
	var nilSink *par.Sink[string]
	nilSink.Record("x", DecisionLog(sampleReport(), "x"))
	if nilSink.Len() != 0 || nilSink.Sorted() != nil {
		t.Fatal("nil sink should be a no-op")
	}
}

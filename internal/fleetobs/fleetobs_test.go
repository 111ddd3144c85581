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

	"toss/internal/par"
	"toss/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden export files")

// sampleRecorder builds a small deterministic two-node trace by hand: four
// routing decisions spanning every affinity reason, one scale-up, and three
// sampling boundaries. Every golden file renders from this fixture.
func sampleRecorder() *Recorder {
	r := New(Config{Interval: simtime.Second})
	grid := func(running1, queued1, running2 int) func() []NodeSample {
		return func() []NodeSample {
			return []NodeSample{
				{Node: "n01", Cores: 2, Running: running1, Queued: queued1,
					DiskUsed: 192 << 20, DiskCap: 1 << 30,
					FastUsed: 24 << 20, FastCap: 48 << 20,
					SlowUsed: 300 << 20, SlowCap: 1536 << 20, Alive: true},
				{Node: "n02", Cores: 2, Running: running2,
					DiskUsed: 64 << 20, DiskCap: 1 << 30,
					FastUsed: 8 << 20, FastCap: 48 << 20,
					SlowUsed: 100 << 20, SlowCap: 1536 << 20, Alive: true},
			}
		}
	}
	r.SampleAt(0, grid(0, 0, 0))
	r.RouteDecision(Decision{
		At: 100 * simtime.Millisecond, Function: "pyaes", Node: "n01",
		Reason: ReasonAffinity, Hit: true,
		Candidates: []Candidate{{Node: "n01", Hit: true}, {Node: "n02", Inflight: 1}},
	})
	r.Invocation("n01", 12*simtime.Millisecond, false)
	r.RouteDecision(Decision{
		At: 200 * simtime.Millisecond, Function: "pyaes", Node: "n02",
		Reason: ReasonSpill, RouterQueue: 3 * simtime.Microsecond, Decide: simtime.Microsecond,
		Candidates: []Candidate{{Node: "n01", Inflight: 2, Hit: true}, {Node: "n02", Inflight: 1}},
	})
	r.Invocation("n02", 230*simtime.Millisecond, true)
	r.RouteDecision(Decision{
		At: 300 * simtime.Millisecond, Function: "compress", Node: "n01",
		Reason: ReasonShed,
		Candidates: []Candidate{
			{Node: "n02", Inflight: 2}, {Node: "n01", Inflight: 2, Hit: true},
		},
	})
	r.Invocation("n01", 480*simtime.Millisecond, true)
	r.SampleAt(1300*simtime.Millisecond, grid(2, 1, 1))
	r.ScaleAction(Scale{
		At: 2 * simtime.Second, Action: "up", Node: "n03",
		Util: 0.9125, Burn: 0.125, Fleet: 3,
	})
	r.RouteDecision(Decision{
		At: 2100 * simtime.Millisecond, Function: "pyaes", Node: "n01",
		Reason: ReasonRoundRobin,
	})
	r.Invocation("n01", 15*simtime.Millisecond, false)
	r.SampleAt(2500*simtime.Millisecond, grid(1, 0, 0))
	return r
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.RouteDecision(Decision{Node: "n01"})
	r.ScaleAction(Scale{Node: "n01"})
	r.Invocation("n01", simtime.Second, true)
	r.SampleAt(simtime.Second, func() []NodeSample { t.Fatal("states called on nil recorder"); return nil })
	if r.Events() != nil || r.Samples() != nil || r.View() != nil || r.Interval() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	var b bytes.Buffer
	if err := r.WriteDecisionLog(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
}

func TestSampleBoundaries(t *testing.T) {
	r := New(Config{Interval: simtime.Second})
	calls := 0
	states := func() []NodeSample {
		calls++
		return []NodeSample{{Node: "n01", Cores: 1, Running: 1, Alive: true}}
	}
	// A jump over several boundaries stamps the held state at each one.
	r.SampleAt(2500*simtime.Millisecond, states)
	if calls != 1 {
		t.Fatalf("states called %d times, want once per SampleAt crossing", calls)
	}
	got := r.Samples()
	want := []simtime.Duration{0, simtime.Second, 2 * simtime.Second}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.At != want[i] {
			t.Fatalf("sample %d at %v, want %v", i, s.At, want[i])
		}
	}
	// Time before the next boundary records nothing and does not call back.
	r.SampleAt(2900*simtime.Millisecond, func() []NodeSample { t.Fatal("no boundary crossed"); return nil })
	if len(r.Samples()) != len(want) {
		t.Fatal("sample recorded without a boundary crossing")
	}
}

func TestViewAggregates(t *testing.T) {
	v := sampleRecorder().View()
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
	if n1.Decisions != 3 || n1.AffinityHits != 1 || n1.Sheds != 1 || n1.Spills != 0 {
		t.Fatalf("n01 router counters = %+v", n1)
	}
	if v.Nodes[1].Spills != 1 {
		t.Fatalf("n02 spills = %d, want 1", v.Nodes[1].Spills)
	}
	// Same nearest-rank convention as cluster.Report.LatencyPercentile:
	// with 3 samples both p50 and p99 truncate to sorted index 1.
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
	r := sampleRecorder()
	goldens := []struct {
		file   string
		render func() string
	}{
		{"decision_log.jsonl", func() string {
			var b bytes.Buffer
			if err := r.WriteDecisionLog(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"chrome_trace.json", func() string {
			var b bytes.Buffer
			if err := r.WriteChromeTrace(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"fleet_view.txt", func() string { return RenderFleet(r.View(), 0) }},
		{"fleet_view.json", func() string {
			var b bytes.Buffer
			if err := WriteFleetJSON(&b, r.View()); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"fleet_view.html", func() string {
			var b bytes.Buffer
			if err := WriteFleetHTML(&b, r.View()); err != nil {
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

func TestRenderEmptyViews(t *testing.T) {
	if !strings.Contains(RenderFleet(nil, 0), "no nodes observed") {
		t.Fatal("nil view should render the empty banner")
	}
	var b bytes.Buffer
	if err := WriteFleetJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "{\"schema_version\":1,\"nodes\":[]}\n" {
		t.Fatalf("nil view JSON = %q", b.String())
	}
	b.Reset()
	if err := WriteFleetHTML(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no fleet attached") {
		t.Fatal("nil view HTML should render the empty banner")
	}
}

// TestDecisionLogCellTag: a cell-tagged log leads every line with the
// cell, so the logs of many cells concatenate into one self-describing
// document; a nil recorder renders nothing.
func TestDecisionLogCellTag(t *testing.T) {
	log := sampleRecorder().DecisionLog("ext9/2n/affinity/flash/toss")
	lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines (4 decisions, 1 scale), got %d:\n%s", len(lines), log)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"cell":"ext9/2n/affinity/flash/toss","at_ns":`) {
			t.Fatalf("line not cell-tagged: %s", l)
		}
	}
	var nilRec *Recorder
	if nilRec.DecisionLog("x") != "" {
		t.Fatal("nil recorder rendered a log")
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
				r := New(Config{})
				r.RouteDecision(Decision{
					At:       simtime.Duration(i) * simtime.Millisecond,
					Function: "fn", Node: fmt.Sprintf("n%02d", i), Reason: ReasonAffinity,
				})
				cell := fmt.Sprintf("cell-%02d", i)
				s.Record(cell, r.DecisionLog(cell))
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
	nilSink.Record("x", New(Config{}).DecisionLog("x"))
	if nilSink.Len() != 0 || nilSink.Sorted() != nil {
		t.Fatal("nil sink should be a no-op")
	}
}

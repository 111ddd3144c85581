package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"

	"toss/internal/platform"
	"toss/internal/workload"
	"toss/internal/wstrack"
)

// fastSuite keeps experiment tests quick: one iteration per data point and
// a short convergence window. Shapes, not error bars, are under test.
func fastSuite() *Suite {
	s := NewSuite()
	s.Iterations = 1
	s.Core.ConvergenceWindow = 5
	return s
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("hello", 1.5)
	tab.AddNote("n=%d", 3)
	out := tab.String()
	for _, want := range []string{"=== x: T ===", "hello", "1.500", "note: n=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "b"}}
	tab.AddRow("v,1", 2.0)
	csvOut, err := tab.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut, "a,b") || !strings.Contains(csvOut, `"v,1"`) {
		t.Errorf("CSV output wrong:\n%s", csvOut)
	}
	jsonOut, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "x"`, `"v,1"`, `"2.000"`} {
		if !strings.Contains(jsonOut, want) {
			t.Errorf("JSON missing %q:\n%s", want, jsonOut)
		}
	}
}

// TestTableClaim pins what a claim adds: its note when it holds (nothing
// when the format is empty), a WARNING naming its id when it fails, and in
// every case a recorded claim, with the CSV unchanged and the JSON changed
// only by the note.
func TestTableClaim(t *testing.T) {
	cases := []struct {
		name   string
		holds  bool
		format string
		args   []any
		note   string // the note the claim adds, "" for none
	}{
		{"holds with a sentence", true, "cost %.2f in band", []any{0.49}, "cost 0.49 in band"},
		{"holds silently", true, "", nil, ""},
		{"fails with a sentence", false, "cost %.2f in band", []any{1.2}, "WARNING: claim x.band does not hold: cost 1.20 in band"},
		{"fails silently", false, "", nil, "WARNING: claim x.band does not hold"},
	}
	base := func() *Table {
		tab := &Table{ID: "x", Title: "T", Header: []string{"a"}}
		tab.AddRow(1.5)
		tab.AddNote("setting")
		return tab
	}
	render := func(tab *Table) (string, string) {
		t.Helper()
		csv, err := tab.CSV()
		if err != nil {
			t.Fatal(err)
		}
		js, err := tab.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return csv, js
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := base(), base()
			got.Claim("x.band", tc.holds, tc.format, tc.args...)
			if tc.note != "" {
				want.AddNote("%s", tc.note)
			}
			if !slices.Equal(got.Notes, want.Notes) {
				t.Errorf("notes = %q, want %q", got.Notes, want.Notes)
			}
			if len(got.claims) != 1 || got.claims[0] != (claim{id: "x.band", holds: tc.holds}) {
				t.Errorf("recorded claims = %+v, want one x.band holding %v", got.claims, tc.holds)
			}
			gotCSV, gotJSON := render(got)
			baseCSV, _ := render(base())
			_, wantJSON := render(want)
			if gotCSV != baseCSV {
				t.Errorf("claim changed the CSV:\n%s", gotCSV)
			}
			if gotJSON != wantJSON {
				t.Errorf("JSON = %s, want %s", gotJSON, wantJSON)
			}
		})
	}
}

// TestExperimentsDocQuotesOutput holds EXPERIMENTS.md to the run it
// reports: every line of its text blocks is a line of
// experiments_output.txt, trailing spaces trimmed.
func TestExperimentsDocQuotesOutput(t *testing.T) {
	out, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(string(out), "\n") {
		lines[strings.TrimRight(l, " ")] = true
	}
	quoted, inBlock := 0, false
	for i, l := range strings.Split(string(doc), "\n") {
		switch {
		case l == "```text":
			inBlock = true
		case l == "```":
			inBlock = false
		case inBlock:
			quoted++
			if !lines[strings.TrimRight(l, " ")] {
				t.Errorf("EXPERIMENTS.md:%d is not a line of experiments_output.txt: %q", i+1, l)
			}
		}
	}
	if quoted == 0 {
		t.Error("EXPERIMENTS.md quotes no output")
	}
}

func TestIDsAndUnknown(t *testing.T) {
	ids := IDs()
	if len(ids) != 23 {
		t.Fatalf("IDs() = %v", ids)
	}
	s := fastSuite()
	if _, err := s.Run("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// The shape tests below name the claims that carry their predicates; each
// predicate is stated once, in its experiment, and read here from the
// serial run (requireClaims).

func TestTable1(t *testing.T) { requireClaims(t, "table1.inventory") }

func TestFig1ShapesHold(t *testing.T) {
	requireClaims(t, "fig1.uffd_ws_grows", "fig1.mincore_covers_uffd", "fig1.damon_grades")
}

func TestFig2ShapesHold(t *testing.T) {
	requireClaims(t, "fig2.obs1_obs2", "fig2.pagerank_most_sensitive")
}

func TestFig5AndTable2ShapesHold(t *testing.T) {
	requireClaims(t, "fig5.cost_band", "table2.pagerank_band", "table2.full_offload",
		"table2.hot_subset_keeps_fast_slice")
}

func TestFig3ShapesHold(t *testing.T) { requireClaims(t, "fig3.mismatch_never_faster") }

func TestFig6ShapesHold(t *testing.T) { requireClaims(t, "fig6.sweep_shape") }

func TestFig7SetupShapesHold(t *testing.T) {
	requireClaims(t, "fig7.toss_setup_constant", "fig7.reap_max_above_toss")
}

func TestExt2ProfilingPatternIndependence(t *testing.T) {
	requireClaims(t, "ext2.distribution_independent")
}

func TestExt4BillingSavesMoney(t *testing.T) { requireClaims(t, "ext4.saving_band") }

func TestExt10ShapesHold(t *testing.T) {
	requireClaims(t, "ext10.same_arrivals", "ext10.base_rate", "ext10.p99_positive",
		"ext10.toss_p99_at_most_dram", "ext10.toss_cold_at_most_dram", "ext10.toss_no_alerts")
}

// TestExt6FaaSnapCoversREAP checks, page by page, the invariant behind
// ext6's mincore claim on the suite's configuration: FaaSnap's mincore
// working set covers REAP's uffd one.
func TestExt6FaaSnapCoversREAP(t *testing.T) {
	s := fastSuite()
	spec := workload.ByNameMust("json_load_dump")
	rf, err := s.reapFunction(spec, workload.II, platform.ModeREAP)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := s.reapFunction(spec, workload.II, platform.ModeFaaSnap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.WorkingSet()) == 0 {
		t.Fatal("REAP recorded no working set")
	}
	if miss := wstrack.Missing(rf.WorkingSet(), ff.WorkingSet()); len(miss) != 0 {
		t.Errorf("mincore WS does not cover uffd WS: missing %v", miss)
	}
}

func TestSuiteCachesBuilds(t *testing.T) {
	s := fastSuite()
	spec, _ := workload.ByName("pyaes")
	b1, err := s.buildFor(spec, AllLevels)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.buildFor(spec, AllLevels)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("buildFor did not cache")
	}
	b3, err := s.buildFor(spec, LevelIVOnly)
	if err != nil {
		t.Fatal(err)
	}
	if b3 == b1 {
		t.Error("different input sets share a cache entry")
	}
}

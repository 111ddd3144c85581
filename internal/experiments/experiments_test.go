package experiments

import (
	"strconv"
	"strings"
	"testing"

	"toss/internal/reap"
	"toss/internal/workload"
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

func TestTable1(t *testing.T) {
	tab, err := fastSuite().Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("table1 rows = %d", len(tab.Rows))
	}
	if tab.Rows[7][0] != "pagerank" || tab.Rows[7][2] != "1024 MB" {
		t.Errorf("pagerank row = %v", tab.Rows[7])
	}
}

func TestFig1ShapesHold(t *testing.T) {
	tab, err := fastSuite().Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("fig1 rows = %d", len(tab.Rows))
	}
	// Working set grows with input; mincore >= uffd.
	var prevUffd float64
	for i, row := range tab.Rows {
		uffd, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		mincore, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if uffd < prevUffd {
			t.Errorf("row %d: uffd WS shrank: %v -> %v", i, prevUffd, uffd)
		}
		if mincore < uffd {
			t.Errorf("row %d: mincore WS %v below uffd %v", i, mincore, uffd)
		}
		prevUffd = uffd
	}
	// DAMON must report more than one count bucket for the largest input
	// (the graded view uffd cannot give).
	if buckets, _ := strconv.Atoi(tab.Rows[3][6]); buckets < 2 {
		t.Errorf("DAMON buckets = %d, want >= 2", buckets)
	}
}

func TestFig2ShapesHold(t *testing.T) {
	s := fastSuite()
	tab, err := s.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("fig2 rows = %d", len(tab.Rows))
	}
	cell := func(fn string, col int) float64 {
		for _, row := range tab.Rows {
			if row[0] == fn {
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("function %s missing", fn)
		return 0
	}
	// Observation #1: compress nearly free fully offloaded.
	if sd := cell("compress", 4); sd > 1.15 {
		t.Errorf("compress full-slow IV = %v, want <= 1.15", sd)
	}
	// pagerank is the most tier-sensitive function.
	pr := cell("pagerank", 4)
	for _, row := range tab.Rows {
		if row[0] == "pagerank" {
			continue
		}
		if v := cell(row[0], 4); v > pr {
			t.Errorf("%s (%v) more tier-sensitive than pagerank (%v)", row[0], v, pr)
		}
	}
	// Observation #2: lr_serving varies across inputs.
	if cell("lr_serving", 4) <= cell("lr_serving", 1)*1.05 {
		t.Error("lr_serving slowdown does not vary with input")
	}
}

func TestFig5AndTable2ShapesHold(t *testing.T) {
	s := fastSuite()
	fig5, err := s.Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Rows) != 10 {
		t.Fatalf("fig5 rows = %d", len(fig5.Rows))
	}
	for _, row := range fig5.Rows {
		cost, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if cost < 0.4-1e-9 || cost >= 1 {
			t.Errorf("%s cost %v outside [0.4, 1)", row[0], cost)
		}
	}
	table2, err := s.Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	share := func(fn string) float64 {
		for _, row := range table2.Rows {
			if row[0] == fn {
				v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
		}
		t.Fatalf("missing %s", fn)
		return 0
	}
	// pagerank is the only function below 60% offloaded (paper: 49.1%).
	if pr := share("pagerank"); pr < 35 || pr > 65 {
		t.Errorf("pagerank slow share = %v%%, want ~49%%", pr)
	}
	for _, fn := range []string{"compress", "json_load_dump", "image_processing"} {
		if v := share(fn); v < 99 {
			t.Errorf("%s slow share = %v%%, want ~100%%", fn, v)
		}
	}
	// The hot-subset functions keep a small fast slice.
	for _, fn := range []string{"float_operation", "pyaes"} {
		if v := share(fn); v >= 99.5 || v < 85 {
			t.Errorf("%s slow share = %v%%, want 85-99.5%%", fn, v)
		}
	}
}

func TestFig3ShapesHold(t *testing.T) {
	tab, err := fastSuite().Run("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 40 { // 10 functions x 4 exec inputs
		t.Fatalf("fig3 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		mean, _ := strconv.ParseFloat(row[2], 64)
		max, _ := strconv.ParseFloat(row[3], 64)
		// Mismatched snapshots can only slow things down (within noise),
		// and the max dominates the mean.
		if mean < 0.97 {
			t.Errorf("%s/%s: mean norm %v below 1", row[0], row[1], mean)
		}
		if max < mean-1e-9 {
			t.Errorf("%s/%s: max %v below mean %v", row[0], row[1], max, mean)
		}
	}
}

func TestFig6ShapesHold(t *testing.T) {
	tab, err := fastSuite().Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("fig6 empty")
	}
	// Within one (function, input) series, slowdown is non-decreasing in k
	// and the slow share implied by cost movement stays sane.
	var prevKey string
	var prevSlowdown float64
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		sd, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if key == prevKey && sd < prevSlowdown-0.03 {
			t.Errorf("%s: slowdown fell from %v to %v along the sweep", key, prevSlowdown, sd)
		}
		if sd < 1 {
			t.Errorf("%s: slowdown %v below 1", key, sd)
		}
		prevKey, prevSlowdown = key, sd
	}
	// Exactly 5 functions are shown (the paper's selection).
	fns := map[string]bool{}
	for _, row := range tab.Rows {
		fns[row[0]] = true
	}
	if len(fns) != 5 {
		t.Errorf("fig6 covers %d functions, want 5", len(fns))
	}
}

func TestFig7SetupShapesHold(t *testing.T) {
	s := fastSuite()
	tab, err := s.Run("fig7")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		tossN, _ := strconv.ParseFloat(row[2], 64)
		reapMax, _ := strconv.ParseFloat(row[5], 64)
		// TOSS setup stays within a small constant of the DRAM setup.
		if tossN > 3 {
			t.Errorf("%s: TOSS setup %vx DRAM, want < 3x", row[0], tossN)
		}
		if reapMax < tossN {
			t.Errorf("%s: REAP max setup (%v) below TOSS (%v)", row[0], reapMax, tossN)
		}
	}
}

func TestExt2ProfilingPatternIndependence(t *testing.T) {
	tab, err := fastSuite().Run("ext2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("ext2 rows = %d", len(tab.Rows))
	}
	var counts []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, v)
	}
	// Distribution independence: the spread across patterns stays within
	// a small factor (wall-clock varies far more).
	var min, max float64 = counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max > 4*min {
		t.Errorf("convergence counts vary too much across patterns: %v", counts)
	}
}

func TestExt4BillingSavesMoney(t *testing.T) {
	tab, err := fastSuite().Run("ext4")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("ext4 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		saving, err := strconv.ParseFloat(strings.TrimSuffix(row[6], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if saving < 0 || saving >= 60.1 {
			t.Errorf("%s: saving %v%% outside [0%%, 60%%]", row[0], saving)
		}
	}
}

func TestExt6FaaSnapCoversREAP(t *testing.T) {
	s := fastSuite()
	ok, err := faaSnapSanity(s, "json_load_dump")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("mincore WS does not cover uffd WS")
	}
	tab, err := s.Run("ext6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("ext6 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		uffd, _ := strconv.ParseFloat(row[1], 64)
		mincore, _ := strconv.ParseFloat(row[2], 64)
		if mincore < uffd {
			t.Errorf("%s: mincore WS %v below uffd %v", row[0], mincore, uffd)
		}
	}
}

func TestExt10ShapesHold(t *testing.T) {
	s := fastSuite()
	s.ClusterScale = 0.02 // ~25k invocations instead of the full 1.26M day
	tab, err := s.Run("ext10")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "toss" || tab.Rows[1][0] != "dram" {
		t.Fatalf("ext10 rows = %v", tab.Rows)
	}
	tossInv, err := strconv.Atoi(tab.Rows[0][1])
	if err != nil {
		t.Fatal(err)
	}
	dramInv, err := strconv.Atoi(tab.Rows[1][1])
	if err != nil {
		t.Fatal(err)
	}
	// Both fleets replay the same streamed arrival schedule.
	if tossInv != dramInv {
		t.Errorf("invocation counts differ: toss %d, dram %d", tossInv, dramInv)
	}
	if tossInv < 10_000 {
		t.Errorf("2%% day simulated only %d invocations, want >= 10k", tossInv)
	}
	for _, row := range tab.Rows {
		p99, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if p99 <= 0 {
			t.Errorf("%s: p99 inflation %v, want > 0", row[0], p99)
		}
	}
	for _, note := range tab.Notes {
		if strings.HasPrefix(note, "WARNING") {
			t.Errorf("ext10 warning at reduced scale: %s", note)
		}
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

// faaSnapSanity asserts the invariant ext6's note claims: the mincore WS
// always covers the uffd WS.
func faaSnapSanity(s *Suite, fn string) (bool, error) {
	spec := workload.ByNameMust(fn)
	rm, err := reap.NewManager(s.Core.VM, spec)
	if err != nil {
		return false, err
	}
	fm, err := reap.NewFaaSnapManager(s.Core.VM, spec)
	if err != nil {
		return false, err
	}
	if _, err := rm.Invoke(workload.II, s.BaseSeed, 1); err != nil {
		return false, err
	}
	if _, err := fm.Invoke(workload.II, s.BaseSeed, 1); err != nil {
		return false, err
	}
	layout, err := spec.Layout()
	if err != nil {
		return false, err
	}
	covered := make([]bool, layout.TotalPages)
	for _, r := range fm.WorkingSet() {
		for p := r.Start; p < r.End(); p++ {
			covered[p] = true
		}
	}
	for _, r := range rm.WorkingSet() {
		for p := r.Start; p < r.End(); p++ {
			if !covered[p] {
				return false, nil
			}
		}
	}
	return true, nil
}

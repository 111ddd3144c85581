package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toss/internal/insight"
	"toss/internal/simtime"
	"toss/internal/xray"
)

// writeDump builds a two-cell insight dump whose p99 series is scaled by
// inflate and writes it to dir/name. inflate=1 is the healthy baseline.
func writeDump(t *testing.T, dir, name string, inflate float64) string {
	t.Helper()
	sink := insight.NewSink()
	for _, cell := range []string{"ext/dram", "ext/toss"} {
		eng := insight.NewEngine(insight.NewStore(insight.Config{}))
		base := 50.0
		if cell == "ext/toss" {
			base = 5.0
		}
		for i := 1; i <= 10; i++ {
			eng.Observe("p99_ms", simtime.Duration(i)*simtime.Second, base*inflate)
			eng.Observe("cold_pct", simtime.Duration(i)*simtime.Second, 0.5)
		}
		sink.Record(cell, eng.Result(cell))
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := insight.WriteDumpJSON(f, insight.Dump{Schema: insight.SchemaVersion, Cells: sink.Sorted()}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureReport runs runReport with stdout captured.
func captureReport(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	code := runReport(args)
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestReportSentinel is the regression sentinel's self-test: a clean
// baseline pair must pass, and a deliberately injected p99 regression must
// flip `tossctl report -fail` to a non-zero exit naming the regressed
// (cell, metric) pair. CI runs the same check end-to-end over real dumps.
func TestReportSentinel(t *testing.T) {
	dir := t.TempDir()
	baseline := writeDump(t, dir, "old.json", 1)
	clean := writeDump(t, dir, "new_clean.json", 1)
	bad := writeDump(t, dir, "new_bad.json", 2)

	code, out := captureReport(t, "-fail", baseline, clean)
	if code != 0 {
		t.Fatalf("clean pair: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "VERDICT: PASS") {
		t.Fatalf("clean pair: missing PASS verdict:\n%s", out)
	}

	code, out = captureReport(t, "-fail", baseline, bad)
	if code != 1 {
		t.Fatalf("injected regression: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"VERDICT: FAIL", "REGRESSED", "ext/dram", "series p99_ms mean", "+100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("injected regression: verdict missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cold_pct") {
		t.Fatalf("injected regression: unchanged series flagged:\n%s", out)
	}

	// Without -fail the same regression still prints but reports success.
	code, out = captureReport(t, baseline, bad)
	if code != 0 {
		t.Fatalf("report without -fail: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "VERDICT: FAIL") {
		t.Fatalf("report without -fail: missing FAIL verdict:\n%s", out)
	}
}

// TestReportHTML pins the -html artifact: self-contained, no scripts, and
// carrying the same verdict line as the markdown.
func TestReportHTML(t *testing.T) {
	dir := t.TempDir()
	baseline := writeDump(t, dir, "old.json", 1)
	bad := writeDump(t, dir, "new_bad.json", 2)
	htmlPath := filepath.Join(dir, "verdict.html")

	code, _ := captureReport(t, "-html", htmlPath, baseline, bad)
	if code != 0 {
		t.Fatalf("report -html: exit %d, want 0", code)
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	page := string(data)
	for _, want := range []string{"<!doctype html>", "VERDICT: FAIL", "ext/dram"} {
		if !strings.Contains(page, want) {
			t.Fatalf("HTML verdict missing %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Fatal("HTML verdict must not embed scripts")
	}
}

// TestReportUsageErrors pins the exit-2 argument contract: an odd number of
// files is not a valid pairing.
func TestReportUsageErrors(t *testing.T) {
	if code := runReport([]string{"only-one.json"}); code != 2 {
		t.Fatalf("odd file count: exit %d, want 2", code)
	}
	if code := runReport(nil); code != 2 {
		t.Fatalf("no files: exit %d, want 2", code)
	}
}

// writeFile writes data to dir/name and returns the path.
func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRunDoc writes an attribution dump to dir/name.
func writeRunDoc(t *testing.T, dir, name string, doc xray.RunDoc) string {
	t.Helper()
	var b strings.Builder
	if err := xray.WriteJSON(&b, doc); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, name, b.String())
}

// readGoldenRunDoc loads xray's checked-in attribution dump fixture: fig2
// with functions alpha and beta, ext1 with alpha.
func readGoldenRunDoc(t *testing.T) xray.RunDoc {
	t.Helper()
	f, err := os.Open(goldenRunDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := xray.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// editedRunDoc is xray's golden dump with one segment doubled, one halved,
// one cell dropped, one added, and a cluster-labelled function appended.
func editedRunDoc(t *testing.T) xray.RunDoc {
	t.Helper()
	doc := readGoldenRunDoc(t)
	fig2, ext1 := doc.Reports[0], doc.Reports[1]
	alpha, beta := &fig2.Functions[0], &fig2.Functions[1]
	alpha.Segments[0].Total *= 2 // fig2/alpha/boot.kernel
	beta.Segments[1].Total /= 2  // fig2/beta/exec.mem.slow
	beta.Segments = append(beta.Segments, xray.SegmentStat{ID: "exec.novel", Total: 7 * simtime.Millisecond, Count: 1})
	ext1.Functions[0].Segments = ext1.Functions[0].Segments[:1] // drop ext1/alpha/exec.cpu
	ext1.Functions = append(ext1.Functions, xray.FunctionReport{
		Label: "pyaes@n01/cluster/4n/affinity/flash/toss", Records: 1, Total: 3 * simtime.Millisecond,
		Segments: []xray.SegmentStat{{ID: xray.SegSnapshotPull, Total: 3 * simtime.Millisecond, Count: 1}},
	})
	return doc
}

// goldenRunDoc is xray's checked-in attribution dump fixture.
const goldenRunDoc = "../../internal/xray/testdata/rundoc.json"

// TestReportPinsXRayPair pins the verdict for an attribution-dump pair:
// rows, row order, the compared count, and the only-old/only-new lines.
func TestReportPinsXRayPair(t *testing.T) {
	newPath := writeRunDoc(t, t.TempDir(), "new.json", editedRunDoc(t))
	code, out := captureReport(t, goldenRunDoc, newPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	want := "# toss run verdict\n\n" +
		"Threshold: 25.0% relative change.\n\n" +
		"## " + goldenRunDoc + " -> " + newPath + " (xray)\n\n" +
		"| status | cell | metric | old | new | delta |\n" +
		"|---|---|---|---|---|---|\n" +
		"| REGRESSED | fig2/alpha | segment boot.kernel ns/record | 2e+07 | 4e+07 | +100.0% |\n" +
		"| improved | fig2/beta | segment exec.mem.slow ns/record | 2e+07 | 1e+07 | -50.0% |\n" +
		"\n6 cells compared: 1 regressed, 1 improved.\n" +
		"- only-old: ext1/alpha/exec.cpu\n" +
		"- only-new: ext1/pyaes@n01/cluster/4n/affinity/flash/toss/snapshot.pull\n" +
		"- only-new: fig2/beta/exec.novel\n" +
		"\n## VERDICT: FAIL — 1 regression(s) across 1 section(s) (6 cells compared)\n"
	if out != want {
		t.Fatalf("xray verdict drifted:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestReportPinsBenchPair pins the verdict for a benchjson report pair:
// ns/op rounds to whole nanoseconds, and a benchmark present on one side
// only is listed by package, name and "ns/op".
func TestReportPinsBenchPair(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", `{"schema_version":1,"suite":{"serial_seconds":1},"benchmarks":[
{"name":"BenchmarkA","package":"toss/internal/x","ns_per_op":1000.4},
{"name":"BenchmarkB","package":"toss/internal/x","ns_per_op":2000},
{"name":"BenchmarkC","package":"toss/internal/y","ns_per_op":300},
{"name":"BenchmarkD","ns_per_op":50}]}`)
	newPath := writeFile(t, dir, "new.json", `{"schema_version":1,"benchmarks":[
{"name":"BenchmarkA","package":"toss/internal/x","ns_per_op":1500.6},
{"name":"BenchmarkB","package":"toss/internal/x","ns_per_op":1000},
{"name":"BenchmarkD","ns_per_op":50},
{"name":"BenchmarkE","package":"toss/internal/y","ns_per_op":10}]}`)
	code, out := captureReport(t, "-fail", oldPath, newPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	want := "# toss run verdict\n\n" +
		"Threshold: 25.0% relative change.\n\n" +
		"## " + oldPath + " -> " + newPath + " (bench)\n\n" +
		"| status | cell | metric | old | new | delta |\n" +
		"|---|---|---|---|---|---|\n" +
		"| REGRESSED | toss/internal/x/BenchmarkA | segment ns/op ns/record | 1000 | 1501 | +50.1% |\n" +
		"| improved | toss/internal/x/BenchmarkB | segment ns/op ns/record | 2000 | 1000 | -50.0% |\n" +
		"\n3 cells compared: 1 regressed, 1 improved.\n" +
		"- only-old: toss/internal/y/BenchmarkC/ns/op\n" +
		"- only-new: toss/internal/y/BenchmarkE/ns/op\n" +
		"\n## VERDICT: FAIL — 1 regression(s) across 1 section(s) (3 cells compared)\n"
	if out != want {
		t.Fatalf("bench verdict drifted:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestReportRejectsMixedKinds: a pair whose two files are different
// artifact kinds is an error (exit 1), in either order, with or without
// -fail.
func TestReportRejectsMixedKinds(t *testing.T) {
	dir := t.TempDir()
	dump := writeDump(t, dir, "insight.json", 1)
	for _, args := range [][]string{
		{"-fail", dump, goldenRunDoc},
		{"-fail", goldenRunDoc, dump},
		{goldenRunDoc, dump},
	} {
		code, out := captureReport(t, args...)
		if code != 1 {
			t.Errorf("report %v: exit %d, want 1\n%s", args, code, out)
		}
	}
}

// TestReportFailsEmptyComparison: when the old artifact has cells but the
// pair compared none, nothing was checked, so -fail must not pass it.
func TestReportFailsEmptyComparison(t *testing.T) {
	empty := writeFile(t, t.TempDir(), "empty.json", `{"schema_version":1,"experiments":[]}`)
	code, out := captureReport(t, "-fail", goldenRunDoc, empty)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "VERDICT: FAIL") {
		t.Fatalf("empty comparison not reported as a failure:\n%s", out)
	}
	// An empty old artifact has nothing to lose: the pair passes.
	if code, out := captureReport(t, "-fail", empty, empty); code != 0 {
		t.Fatalf("empty pair: exit %d, want 0\n%s", code, out)
	}
}

// compareRunDocs runs one report section over two attribution dumps.
func compareRunDocs(t *testing.T, old, new xray.RunDoc) (insight.Section, error) {
	t.Helper()
	dir := t.TempDir()
	return reportSection(writeRunDoc(t, dir, "old.json", old), writeRunDoc(t, dir, "new.json", new), 0.25)
}

// segment returns a pointer to the named function's segment in doc.
func segment(t *testing.T, doc xray.RunDoc, exp, label, seg string) *xray.SegmentStat {
	t.Helper()
	for _, r := range doc.Reports {
		for i := range r.Functions {
			fr := &r.Functions[i]
			for j := range fr.Segments {
				if r.Experiment == exp && fr.Label == label && fr.Segments[j].ID == seg {
					return &fr.Segments[j]
				}
			}
		}
	}
	t.Fatalf("no segment %s/%s/%s", exp, label, seg)
	return nil
}

// TestReportXRayIdenticalDocs: comparing two same-seed attribution dumps
// reports nothing, yet still compares every cell.
func TestReportXRayIdenticalDocs(t *testing.T) {
	doc := readGoldenRunDoc(t)
	sec, err := compareRunDocs(t, doc, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions)+len(sec.Improvements)+len(sec.OnlyOld)+len(sec.OnlyNew) != 0 {
		t.Fatalf("identical docs must compare clean: %+v", sec)
	}
	if sec.Compared != 7 {
		t.Fatalf("compared %d cells, want all 7", sec.Compared)
	}
}

// TestReportXRayRegression: a segment grown past the threshold is the one
// regression, named by its cell and segment.
func TestReportXRayRegression(t *testing.T) {
	old, new := readGoldenRunDoc(t), readGoldenRunDoc(t)
	seg := segment(t, new, "fig2", "beta", xray.SegExecMemSlow)
	seg.Total = seg.Total * 3 / 2
	dir := t.TempDir()
	oldPath, newPath := writeRunDoc(t, dir, "old.json", old), writeRunDoc(t, dir, "new.json", new)
	sec, err := reportSection(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 1 || len(sec.Improvements) != 0 {
		t.Fatalf("want exactly one regression, got %+v", sec)
	}
	r := sec.Regressions[0]
	if r.Cell != "fig2/beta" || r.Metric != "segment exec.mem.slow ns/record" {
		t.Fatalf("regression names the wrong cell: %+v", r)
	}
	if d := r.Delta(); d < 0.49 || d > 0.51 {
		t.Fatalf("delta: want ~0.5, got %v", d)
	}
	code, out := captureReport(t, "-fail", oldPath, newPath)
	if code != 1 || !strings.Contains(out, "| REGRESSED | fig2/beta | segment exec.mem.slow ns/record |") {
		t.Fatalf("exit %d; verdict must name the cell:\n%s", code, out)
	}
}

// TestReportXRayImprovementAndOnlyCells: a segment shrunk past the
// threshold is an improvement, and a segment on one side only is listed by
// its path as only-new, or only-old with the pair swapped.
func TestReportXRayImprovementAndOnlyCells(t *testing.T) {
	old, new := readGoldenRunDoc(t), readGoldenRunDoc(t)
	segment(t, new, "fig2", "beta", xray.SegExecMemSlow).Total /= 2
	beta := &new.Reports[0].Functions[1] // fig2/beta
	beta.Segments = append(beta.Segments, xray.SegmentStat{ID: "exec.novel", Total: 1, Count: 1})
	sec, err := compareRunDocs(t, old, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 0 || len(sec.Improvements) != 1 || sec.Improvements[0].Metric != "segment exec.mem.slow ns/record" {
		t.Fatalf("improvements: %+v", sec)
	}
	if len(sec.OnlyOld) != 0 || len(sec.OnlyNew) != 1 || sec.OnlyNew[0] != "fig2/beta/exec.novel" {
		t.Fatalf("only-old %v, only-new %v", sec.OnlyOld, sec.OnlyNew)
	}
	// Swap directions: old has the extra cell.
	sec, err = compareRunDocs(t, new, old)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.OnlyNew) != 0 || len(sec.OnlyOld) != 1 || sec.OnlyOld[0] != "fig2/beta/exec.novel" {
		t.Fatalf("only-old %v, only-new %v", sec.OnlyOld, sec.OnlyNew)
	}
}

// TestReportXRaySchemaMismatch: dumps of two schema versions do not
// compare.
func TestReportXRaySchemaMismatch(t *testing.T) {
	old, new := readGoldenRunDoc(t), readGoldenRunDoc(t)
	new.Schema = xray.SchemaVersion + 1
	if _, err := compareRunDocs(t, old, new); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Fatalf("schema mismatch must error, got %v", err)
	}
}

// TestReportZeroBaselineDelta: growth from a zero baseline reads as +100%,
// and zero to zero as no change.
func TestReportZeroBaselineDelta(t *testing.T) {
	old, new := readGoldenRunDoc(t), readGoldenRunDoc(t)
	segment(t, old, "ext1", "alpha", xray.SegExecCPU).Total = 0
	segment(t, old, "fig2", "beta", xray.SegExecCPU).Total = 0
	segment(t, new, "fig2", "beta", xray.SegExecCPU).Total = 0
	sec, err := compareRunDocs(t, old, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 1 || sec.Regressions[0].Cell != "ext1/alpha" || sec.Regressions[0].Delta() != 1 {
		t.Fatalf("growth from zero: want one +100%% regression, got %+v", sec.Regressions)
	}
	if d := (insight.VerdictRow{}).Delta(); d != 0 {
		t.Fatalf("zero-to-zero: want 0, got %v", d)
	}
}

// TestReportNamesClusterCells: a regression inside a cluster-tagged budget
// names the swept cell — node count, policy, arrival, mechanism — apart
// from the invocation label, so the verdict says which cell regressed.
func TestReportNamesClusterCells(t *testing.T) {
	mk := func(pull simtime.Duration) xray.RunDoc {
		b := xray.New("pyaes@n01/cluster/4n/affinity/flash/toss")
		b.Add(xray.SegSnapshotPull, pull)
		b.Add(xray.SegExecRun, 10*simtime.Millisecond)
		b.Seal(pull + 10*simtime.Millisecond)
		u := xray.New("compress@n02/cluster")
		u.Add(xray.SegExecRun, 5*simtime.Millisecond)
		u.Seal(5 * simtime.Millisecond)
		rep := xray.Aggregate("ext9", []*xray.Budget{b, u})
		return xray.RunDoc{Schema: xray.SchemaVersion, Reports: []*xray.Report{rep}}
	}
	dir := t.TempDir()
	oldPath := writeRunDoc(t, dir, "old.json", mk(10*simtime.Millisecond))
	newPath := writeRunDoc(t, dir, "new.json", mk(20*simtime.Millisecond))
	code, out := captureReport(t, "-fail", oldPath, newPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	want := "| REGRESSED | ext9/pyaes@n01 [4n/affinity/flash/toss] | segment snapshot.pull ns/record | 1e+07 | 2e+07 | +100.0% |\n"
	if !strings.Contains(out, want) || strings.Count(out, "REGRESSED") != 1 {
		t.Fatalf("verdict must name the cluster cell once:\n%s", out)
	}
	if !strings.Contains(out, "3 cells compared: 1 regressed") {
		t.Fatalf("untagged cluster cell not compared:\n%s", out)
	}
}

// nullReportDoc is an attribution dump whose one report is null.
const nullReportDoc = `{"schema_version":1,"experiments":[null]}`

// TestReportRejectsNullReport: a pair of dumps holding a null report exits
// 1 with an error instead of dereferencing the report.
func TestReportRejectsNullReport(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.json", nullReportDoc)
	b := writeFile(t, dir, "b.json", nullReportDoc)
	if code, _ := captureReport(t, a, b); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// FuzzLoadArtifact: any document yields an artifact or an error, never a
// panic.
func FuzzLoadArtifact(f *testing.F) {
	for _, path := range []string{
		goldenRunDoc,
		"../../internal/insight/testdata/dump.json",
		"../../BENCH_experiments.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(nullReportDoc))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = parseArtifact(data)
	})
}

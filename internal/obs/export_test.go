package obs_test

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toss/internal/core"
	"toss/internal/obs"
	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden export files")

// miniRun replays a small deterministic workload through the platform with
// the flight recorder attached — a scaled-down `faasim -prom -csv` — and
// returns the recorder. Two calls must produce byte-identical exports.
func miniRun(t testing.TB) *obs.Recorder {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 4
	cfg.VM.Metrics = telemetry.NewMetrics()
	rec := obs.New(obs.Config{
		Interval: 250 * simtime.Millisecond,
		Metrics:  cfg.VM.Metrics,
	})
	cfg.VM.Recorder = rec
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := workload.ByName("pyaes")
	if !ok {
		t.Fatal("pyaes not in registry")
	}
	if err := p.Register(spec, platform.ModeTOSS); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	reqs := make([]platform.Request, 0, 30)
	for i := 0; i < 30; i++ {
		reqs = append(reqs, platform.Request{
			Function: "pyaes",
			Level:    workload.Levels[rng.Intn(len(workload.Levels))],
			Seed:     rng.Int63n(1 << 40),
		})
	}
	for _, r := range p.Replay(reqs, 1) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return rec
}

// exports renders both deterministic exports of a recorder.
func exports(t testing.TB, rec *obs.Recorder) (prom, csv []byte) {
	t.Helper()
	var pb, cb bytes.Buffer
	if err := obs.WritePrometheus(&pb, rec.Metrics()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteCSV(&cb, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), cb.Bytes()
}

// TestExportsDeterministic is the acceptance gate: two independent same-seed
// runs must produce byte-identical Prometheus and CSV exports, and both must
// match the checked-in golden files (refresh with `go test -run
// TestExportsDeterministic ./internal/obs/ -update`).
func TestExportsDeterministic(t *testing.T) {
	prom1, csv1 := exports(t, miniRun(t))
	prom2, csv2 := exports(t, miniRun(t))
	if !bytes.Equal(prom1, prom2) {
		t.Error("two same-seed runs produced different Prometheus exports")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("two same-seed runs produced different CSV exports")
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"mini.prom", prom1},
		{"mini.csv", csv1},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from golden file (run with -update if the change is intended)", g.file)
		}
	}
}

func TestExportContents(t *testing.T) {
	rec := miniRun(t)
	prom, csv := exports(t, rec)

	promStr := string(prom)
	for _, want := range []string{
		"# TYPE toss_obs_restores counter",
		"# TYPE toss_obs_fast_share_ppm gauge",
		"# TYPE toss_microvm_fault_latency_ns histogram",
		`toss_obs_restores{fn="pyaes",kind=`,
		`le="+Inf"`,
		"toss_microvm_fault_latency_ns_sum",
		"# TYPE toss_obs_damon_rank_corr_ppm gauge",
	} {
		if !strings.Contains(promStr, want) {
			t.Errorf("Prometheus export missing %q", want)
		}
	}
	// TYPE lines come sorted by family name.
	var families []string
	for _, line := range strings.Split(promStr, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	if !sortedStrings(families) {
		t.Errorf("families not sorted: %v", families)
	}

	csvStr := string(csv)
	if !strings.HasPrefix(csvStr, "series,t_ns,value\n") {
		t.Errorf("CSV header wrong: %q", csvStr[:min(40, len(csvStr))])
	}
	if !strings.Contains(csvStr, "obs.fast_share_ppm") {
		t.Error("CSV missing derived residency series")
	}

	var jb bytes.Buffer
	if err := obs.WriteTimeseriesJSON(&jb, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	js := jb.String()
	for _, want := range []string{
		`"now_ns":`, `"series":[`, `"timelines":[`, `"audits":[`,
		`"function":"pyaes"`, `"rank_correlation":`,
	} {
		if !strings.Contains(js, want) {
			t.Errorf("JSON export missing %q", want)
		}
	}
	// The TOSS pipeline ran to convergence, so audits must exist.
	snap := rec.Snapshot()
	if len(snap.Audits) == 0 {
		t.Error("no DAMON audits recorded through the platform path")
	}
	for _, a := range snap.Audits {
		if a.RankCorrelation < -1 || a.RankCorrelation > 1 {
			t.Errorf("audit rho out of range: %+v", a)
		}
		if a.Pages == 0 {
			t.Errorf("audit joined zero pages: %+v", a)
		}
	}
	// Residency heatmap renders non-trivially from the same run.
	hm := obs.RenderHeatmap(snap, 32)
	if !strings.Contains(hm, "pyaes") {
		t.Errorf("heatmap missing function row:\n%s", hm)
	}
}

func sortedStrings(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i] < ss[i-1] {
			return false
		}
	}
	return true
}

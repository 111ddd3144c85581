package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"toss/internal/snapshot"
)

// onePass sets a workload up and runs one pass of its timed phase.
func onePass(t *testing.T, def workloadDef, seed int64, p *probe) (digest, outcome) {
	t.Helper()
	b := def.make(seed, t.TempDir(), p)
	setup, err := b.setUp()
	if err != nil {
		t.Fatalf("%s set-up: %v", def.name, err)
	}
	if p.traced {
		p.reset()
	}
	if err := b.pass(0); err != nil {
		t.Fatalf("%s pass: %v", def.name, err)
	}
	return setup, b.result()
}

// A reduced run repeats exactly for one seed, matches the reference set-up
// digest, and a different seed changes the run digest.
func TestReducedRunsRepeatAndSeedReachesInputs(t *testing.T) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			setup, a := onePass(t, def, 7, newProbe(false))
			_, b := onePass(t, def, 7, newProbe(false))
			_, c := onePass(t, def, 8, newProbe(false))
			if got, want := setup.String(), ref.Setup[def.name]; got != want {
				t.Errorf("set-up digest %s, reference.json has %s", got, want)
			}
			if a.failed != 0 || len(a.problems) != 0 {
				t.Fatalf("%d failed ops: %v", a.failed, a.problems)
			}
			if a.digest != b.digest || !reflect.DeepEqual(a.virtual, b.virtual) {
				t.Errorf("same seed differs: %s %v vs %s %v", a.digest, a.virtual, b.digest, b.virtual)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 7 and 8 give the same digest %s", a.digest)
			}
		})
	}
}

// A traced pass runs every cross-check (mirror controllers, re-issued
// layers) clean, keeps the untraced digest, and reports its layers.
func TestTracedPassMatchesUntraced(t *testing.T) {
	want := map[string][]string{
		"build": {"core.step2_s", "damon.profile_s", "microvm.restore_run_s", "snapshot.read_s", "damon.regions"},
		"serve": {"platform.invoke_s", "core.invoke_s", "microvm.restore_s", "microvm.major_faults"},
		"fleet": {"cluster.run_s", "workload.arrivals_s", "migrate.tick_s", "migrate.moves"},
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			_, plain := onePass(t, def, 7, newProbe(false))
			p := newProbe(true)
			_, traced := onePass(t, def, 7, p)
			if traced.failed != 0 || len(traced.problems) != 0 {
				t.Fatalf("%d failed ops: %v", traced.failed, traced.problems)
			}
			if traced.digest != plain.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			for _, n := range want[def.name] {
				if p.sums[n] <= 0 && p.counts[n] <= 0 {
					t.Errorf("layer %s not measured", n)
				}
			}
		})
	}
}

// A snapshot file corrupted after WriteTiered fails the op; it does not
// panic or abort the pass.
func TestCorruptSnapshotFailsOp(t *testing.T) {
	b := newBuildBench(7, t.TempDir(), newProbe(false))
	if _, err := b.setUp(); err != nil {
		t.Fatal(err)
	}
	b.afterWrite = func(dir string) error {
		// The layout file ends with the checksum over all three files.
		path := snapshot.PathsIn(dir).Layout
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xff
		return os.WriteFile(path, data, 0o644)
	}
	if err := b.pass(0); err != nil {
		t.Fatal(err)
	}
	out := b.result()
	if out.ops != len(b.specs) || out.failed != out.ops {
		t.Fatalf("%d of %d ops failed, want all", out.failed, out.ops)
	}
	if !strings.Contains(out.problems[0], "round trip") {
		t.Errorf("problem %q does not name the round trip", out.problems[0])
	}
}

// The JSON line carries exactly the declared metric set for its mode.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := &result{setup: []time.Duration{time.Second}, passes: []time.Duration{time.Second}, peaks: []float64{100},
			calibs: []time.Duration{calibrationNominal},
			out: outcome{ops: 3, virtual: []metric{{"norm_cost", 0.5, "ratio"}, {"p50_ms", 1, "ms"},
				{"p99_ms", 2, "ms"}, {"slowdown", 1.1, "ratio"}}}}
		keep := endToEnd
		if traced {
			r.probe, r.tracedWall = newProbe(true), time.Second
			r.probe.finish(nil, r.tracedWall, 0)
			keep = perLayer
		}
		var buf bytes.Buffer
		r.print(&buf, "x", traced)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var got struct {
			Correct   bool
			Attempted int
			Metrics   map[string]json.RawMessage
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || got.Attempted != 3 || len(got.Metrics) != len(keep) {
			t.Errorf("traced=%t: %+v", traced, got)
		}
		for n := range got.Metrics {
			if !keep[n] {
				t.Errorf("traced=%t: undeclared metric %s", traced, n)
			}
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", "build", "-trace", "2"}, {"-workload", "build", "-seconds", "0"}} {
		if code := run(time.Now(), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}

// The benchmark declares what it prints: BENCHMARK.json at the repository
// root lists the same metric names as the program.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark")
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name string }, want map[string]bool) {
		names := map[string]bool{}
		for _, m := range got {
			names[m.Name] = true
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s: BENCHMARK.json %v, program %v", kind, names, want)
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

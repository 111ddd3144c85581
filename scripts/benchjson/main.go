// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON benchmark report on stdout, optionally joined with suite
// wall-clock timings passed via flags. CI runs it (see scripts/bench.sh)
// to emit BENCH_experiments.json, the artifact the perf regression check
// diffs against; the checked-in copy at the repo root records the numbers
// quoted in the README.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | \
//	    go run ./scripts/benchjson -serial 33.7 -parallel 6.4 -workers 8 > BENCH_experiments.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra carries custom b.ReportMetric units (e.g. "tables/s").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// SchemaVersion stamps the report format. `tossctl report` leaves it
// unread, so reports written before versioning still compare against
// current ones.
const SchemaVersion = 1

// Suite records the end-to-end `tossctl all` wall-clock comparison.
type Suite struct {
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Workers         int     `json:"workers"`
	Speedup         float64 `json:"speedup"`
	// Ext8Seconds is the wall-clock of the ext8 fault-tolerance sweep on
	// its own — the fault machinery's end-to-end cost benchmark.
	Ext8Seconds float64 `json:"ext8_seconds,omitempty"`
	// ExtSeconds is the per-experiment wall-clock of each ext experiment,
	// passed via repeated -ext name=seconds flags. Maps marshal with sorted
	// keys, so the report stays byte-deterministic for given inputs.
	ExtSeconds map[string]float64 `json:"ext_seconds,omitempty"`
	// FleetObsSeconds is the wall-clock of the ext9 cluster sweep with the
	// full observability export on (-xray attribution dump plus -fleetlog
	// decision log) — the end-to-end cost of fleet explainability; compare
	// against ExtSeconds["ext9"] for the observation overhead.
	FleetObsSeconds float64 `json:"fleetobs_seconds,omitempty"`
	// ClusterInvPerSec and ClusterAllocsPerInvocation are derived from
	// BenchmarkClusterRun (the million-invocation streamed fleet day): the
	// event core's simulation throughput and its amortized heap allocations
	// per invocation. The acceptance budget is >= 1M invocations in under
	// 5s on one core at <= 2 allocs/invocation; CI's warn-only guard and
	// the checked-in baseline both read these fields.
	ClusterInvPerSec           float64 `json:"cluster_invocations_per_second,omitempty"`
	ClusterAllocsPerInvocation float64 `json:"cluster_allocs_per_invocation,omitempty"`
	// Ext11Seconds is the wall-clock of the ext11 migration-frontier sweep
	// on its own (hoisted from ExtSeconds): the N-tier migration engine's
	// end-to-end cost benchmark.
	Ext11Seconds float64 `json:"ext11_seconds,omitempty"`
	// MigrationsPerSecond is derived from BenchmarkMigrationEngine's
	// "migrations/s" metric: how fast the engine folds heat and repacks
	// tiers on a drifting working set.
	MigrationsPerSecond float64 `json:"migrations_per_second,omitempty"`
	// InsightSeconds is the wall-clock of the ext11 sweep with the insight
	// layer on (-alerts alert log plus -insight dump) — the end-to-end cost
	// of alert evaluation and the series store; compare against
	// ExtSeconds["ext11"] for the insight overhead.
	InsightSeconds float64 `json:"insight_seconds,omitempty"`
	// AlertsEvalsPerSecond is derived from BenchmarkAlertEngine's "evals/s"
	// metric: how many rule evaluations per second the virtual-time alert
	// engine sustains on a mixed threshold/rate/burn rule set.
	AlertsEvalsPerSecond float64 `json:"alerts_evaluations_per_second,omitempty"`
}

// Report is the document written to stdout.
type Report struct {
	Schema     int         `json:"schema_version"`
	Suite      *Suite      `json:"suite,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// extFlag collects repeated -ext name=seconds pairs.
type extFlag map[string]float64

func (e extFlag) String() string { return fmt.Sprint(map[string]float64(e)) }

func (e extFlag) Set(v string) error {
	name, secs, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=seconds, got %q", v)
	}
	f, err := strconv.ParseFloat(secs, 64)
	if err != nil {
		return fmt.Errorf("bad seconds in %q: %w", v, err)
	}
	e[name] = f
	return nil
}

func main() {
	serial := flag.Float64("serial", 0, "wall-clock seconds of `tossctl all -parallel 1` (0 omits the suite block)")
	parallel := flag.Float64("parallel", 0, "wall-clock seconds of `tossctl all -parallel N`")
	workers := flag.Int("workers", 0, "worker count N used for the parallel run")
	ext8 := flag.Float64("ext8", 0, "wall-clock seconds of the ext8 fault sweep alone (0 omits)")
	fleetobs := flag.Float64("fleetobs", 0, "wall-clock seconds of ext9 with -xray and -fleetlog exports on (0 omits)")
	insight := flag.Float64("insight", 0, "wall-clock seconds of ext11 with -alerts and -insight exports on (0 omits)")
	exts := extFlag{}
	flag.Var(exts, "ext", "per-experiment wall-clock as name=seconds (repeatable, e.g. -ext ext1=3.20)")
	flag.Parse()

	report := Report{Schema: SchemaVersion, Benchmarks: []Benchmark{}}
	if *serial > 0 && *parallel > 0 {
		report.Suite = &Suite{
			SerialSeconds:   *serial,
			ParallelSeconds: *parallel,
			Workers:         *workers,
			Speedup:         *serial / *parallel,
			Ext8Seconds:     *ext8,
			FleetObsSeconds: *fleetobs,
			InsightSeconds:  *insight,
		}
		if len(exts) > 0 {
			report.Suite.ExtSeconds = exts
			report.Suite.Ext11Seconds = exts["ext11"]
		}
	}

	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if b, ok := parseBench(line, pkg); ok {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if report.Suite != nil {
		for _, b := range report.Benchmarks {
			switch {
			case strings.HasPrefix(b.Name, "BenchmarkClusterRun"):
				report.Suite.ClusterInvPerSec = b.Extra["inv/s"]
				if inv := b.Extra["invocations"]; inv > 0 {
					report.Suite.ClusterAllocsPerInvocation = b.AllocsPerOp / inv
				}
			case strings.HasPrefix(b.Name, "BenchmarkMigrationEngine"):
				report.Suite.MigrationsPerSecond = b.Extra["migrations/s"]
			case strings.HasPrefix(b.Name, "BenchmarkAlertEngine"):
				report.Suite.AlertsEvalsPerSecond = b.Extra["evals/s"]
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench parses one result line:
//
//	BenchmarkTraceReplay-8   9246   120884 ns/op   4768 B/op   9 allocs/op
//
// into a Benchmark named BenchmarkTraceReplay.
func parseBench(line, pkg string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	// Drop the -GOMAXPROCS suffix (BenchmarkX-8), so reports from hosts
	// with different core counts compare by name.
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Package: pkg, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[fields[i+1]] = v
		}
	}
	return b, b.NsPerOp > 0 || len(b.Extra) > 0
}

// Command perfbench is the repository's benchmark. It runs one workload in
// its own process and prints, as the last line of standard output, one JSON
// object with the run's correctness, op counts and metrics:
//
//	perfbench -workload build|serve|fleet -seed N -seconds S -trace 0|1
//
// The simulator runs on two clocks. Host time is what the simulator costs to
// run; virtual time is the latency of the modelled system. Virtual outputs
// are a pure function of the seed and the run size, so they repeat exactly,
// and a digest of them is checked against reference.json. -seconds sets the
// size of the timed phase: it runs a fixed number of passes, sized so that
// it takes about that long on the reference host (see README.md).
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// process first times the phase untraced, then sets up again and reruns it
// with a timer around every call into a layer, re-issuing the same inputs to
// single layers where a call hides them; the metrics are the per-layer ones.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one workload. A fresh value is made for every set-up.
type bench interface {
	// setUp prepares the timed phase. Its inputs do not depend on the seed,
	// so the digest of its virtual outputs is checked on every run.
	setUp() (digest, error)
	// pass runs pass i of the timed phase. Inputs derive from (seed, i).
	pass(i int) error
	// result summarizes every pass run so far.
	result() outcome
}

// outcome is a workload's virtual result.
type outcome struct {
	ops, failed int
	// virtual holds every virtual-time metric the workload reports, the
	// end-to-end ones among them.
	virtual []metric
	digest  digest
	// problems lists failed output checks.
	problems []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

// workloadDef describes how to run one workload.
type workloadDef struct {
	name string
	make func(seed int64, dir string, p *probe) bench
	// passesPerSecond sizes the timed phase: -seconds S runs
	// ceil(S*passesPerSecond) passes.
	passesPerSecond float64
	// top are the per-layer times that partition a traced pass; other_s is
	// the traced wall time they leave over.
	top []string
}

var workloads = []workloadDef{buildDef, serveDef, fleetDef}

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 5

// defaultSeed is the seed reference.json pins the run digest for.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	// Setup maps a workload to its set-up digest (seed-independent).
	Setup map[string]string `json:"setup"`
	// Seconds and the run digests pin a run of defaultSeed at that size.
	Seconds float64           `json:"seconds"`
	Run     map[string]string `json:"run"`
}

func main() {
	start := time.Now()
	os.Exit(run(start, os.Args[1:], os.Stdout, os.Stderr))
}

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: build, serve or fleet")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "nominal length of the timed phase on the reference host")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced rerun")
	workdir := fs.String("workdir", ".bench_build", "directory for snapshot files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: perfbench -workload build|serve|fleet -seed N -seconds S -trace 0|1\n")
		return 2
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintf(stderr, "perfbench: reference.json: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res, err := measure(def, *seed, passesFor(def, *seconds), dir, *trace == 1, start)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	if want := ref.Setup[def.name]; res.setupDigest.String() != want {
		res.fail(res.out.ops, "set-up digest %s, reference %s", res.setupDigest, want)
	}
	if *seed == defaultSeed && *seconds == ref.Seconds {
		if want := ref.Run[def.name]; res.out.digest.String() != want {
			res.fail(res.out.ops, "run digest %s, reference %s", res.out.digest, want)
		}
	}
	res.print(stdout, def.name, *trace == 1)
	return 0
}

// passesFor converts a nominal length into a pass count.
func passesFor(def *workloadDef, seconds float64) int {
	return max(1, int(math.Ceil(seconds*def.passesPerSecond)))
}

// result is everything one process measured.
type result struct {
	setup       []time.Duration // at the reference host's speed
	setupDigest digest
	passes      []time.Duration // untraced pass times
	peaks       []float64       // untraced per-pass peak RSS, MB
	calibs      []time.Duration // calibration time after each untraced pass
	out         outcome
	// traced run only.
	tracedWall time.Duration
	probe      *probe
	runtime    runtimeDelta
}

func (r *result) fail(ops int, format string, args ...any) {
	r.out.problems = append(r.out.problems, fmt.Sprintf(format, args...))
	r.out.failed = max(r.out.failed, ops)
}

// measure sets the workload up setupReps times, keeps the last instance and
// times its passes. When traced, it then sets up once more and reruns the
// same passes under the probe.
func measure(def *workloadDef, seed int64, passes int, dir string, traced bool, start time.Time) (*result, error) {
	r := &result{}
	var b bench
	var p *probe
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		p = newProbe(false)
		b = def.make(seed, dir, p)
		d, err := b.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, atReferenceSpeed(time.Since(t0), calibrate()))
		if i > 0 && d != r.setupDigest {
			return nil, fmt.Errorf("set-up digest changed between repetitions: %s then %s", r.setupDigest, d)
		}
		r.setupDigest = d
	}
	walls, peaks, calibs, err := timePasses(b, passes, p)
	if err != nil {
		return nil, err
	}
	r.passes, r.peaks, r.calibs, r.out = walls, peaks, calibs, b.result()
	if !traced {
		return r, nil
	}

	r.probe = newProbe(true)
	tb := def.make(seed, dir, r.probe)
	if _, err := tb.setUp(); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	r.probe.reset()
	before := readRuntime()
	walls, _, tcalibs, err := timePasses(tb, passes, r.probe)
	if err != nil {
		return nil, err
	}
	r.tracedWall = sum(walls)
	r.runtime = readRuntime().minus(before)
	tout := tb.result()
	if tout.digest != r.out.digest {
		r.out.problems = append(r.out.problems, fmt.Sprintf("traced digest %s differs from untraced %s", tout.digest, r.out.digest))
	}
	r.out.problems = append(r.out.problems, tout.problems...)
	r.out.failed = max(r.out.failed, tout.failed)
	overhead := sum(scaled(walls, tcalibs)).Seconds()/sum(scaled(r.passes, r.calibs)).Seconds() - 1
	r.probe.finish(def.top, r.tracedWall, overhead)
	return r, nil
}

// timePasses runs the passes and returns each one's wall time, less the
// time the probe excluded (bookkeeping and re-issued calls), each one's peak
// resident memory, and the calibration kernel's time right after it.
func timePasses(b bench, passes int, p *probe) (walls []time.Duration, peaks []float64, calibs []time.Duration, err error) {
	for i := 0; i < passes; i++ {
		resetPeakRSS()
		excluded := p.excluded
		t0 := time.Now()
		if err := b.pass(i); err != nil {
			return nil, nil, nil, fmt.Errorf("pass %d: %w", i, err)
		}
		walls = append(walls, time.Since(t0)-(p.excluded-excluded))
		peaks = append(peaks, peakRSSMB())
		// Each pass starts from a collected heap returned to the OS, so one
		// pass's garbage does not bill the next and its peak is its own.
		debug.FreeOSMemory()
		calibs = append(calibs, calibrate())
	}
	return walls, peaks, calibs, nil
}

// wall is the timed phase's wall time at the reference host's speed: each
// pass's time is scaled by calibrationNominal over the calibration kernel's
// time after it, and every pass counts at the median of the scaled times,
// so a burst of load from elsewhere on the host moves one pass, not the
// result.
func (r *result) wall() time.Duration {
	return median(scaled(r.passes, r.calibs)) * time.Duration(len(r.passes))
}

// scaled gives each pass's time at the reference host's speed.
func scaled(walls, calibs []time.Duration) []time.Duration {
	s := make([]time.Duration, len(walls))
	for i, d := range walls {
		s[i] = atReferenceSpeed(d, calibs[i])
	}
	return s
}

func (r *result) print(w io.Writer, name string, traced bool) {
	var ms []metric
	if traced {
		ms = r.probe.metrics()
		ms = append(ms,
			metric{"runtime.gc_cpu_frac", r.runtime.gcCPUFrac(), "ratio"},
			metric{"runtime.alloc_mb", r.runtime.allocBytes / (1 << 20), "MB"},
			metric{"runtime.gc_cycles", r.runtime.gcCycles, "count"})
	} else {
		ms = append(ms,
			metric{"wall_s", r.wall().Seconds(), "s"},
			metric{"setup_s", median(r.setup).Seconds(), "s"},
			metric{"ops_per_s", float64(r.out.ops) / r.wall().Seconds(), "1/s"},
			metric{"peak_rss_mb", medianFloat(r.peaks), "MB"},
			metric{"calibration_ms", float64(median(r.calibs).Microseconds()) / 1e3, "ms"},
			metric{"raw_wall_s", sum(r.passes).Seconds(), "s"})
		ms = append(ms, r.out.virtual...)
	}
	fmt.Fprintf(w, "workload %s: %d ops, %d failed\n", name, r.out.ops, r.out.failed)
	fmt.Fprintf(w, "digest setup=%s run=%s\n", r.setupDigest, r.out.digest)
	for _, p := range r.out.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, m.value, m.unit)
	}

	keep := endToEnd
	if traced {
		keep = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(r.out.problems) == 0 && r.out.failed == 0,
		Attempted: max(r.out.ops, 1),
		Failed:    r.out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if traced {
		// A layer the workload does not exercise took no time.
		for n := range perLayer {
			out.Metrics[n] = jsonMetric{0, unitOf(n)}
		}
	}
	for _, m := range ms {
		if keep[m.name] {
			out.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	line, _ := json.Marshal(out) // plain structs and maps always marshal
	fmt.Fprintf(w, "%s\n", line)
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares; the
// JSON line carries exactly one of the two sets.
var (
	endToEnd = nameSet("wall_s", "setup_s", "ops_per_s", "peak_rss_mb", "norm_cost")
	perLayer = nameSet(
		"workload.trace_s", "core.step1_s", "core.step2_s", "core.step2_calls",
		"microvm.restore_run_s", "damon.profile_s", "damon.fold_s", "damon.regions",
		"core.analyze_s", "core.bins", "snapshot.build_s", "snapshot.write_s", "snapshot.read_s", "snapshot.bytes",
		"platform.invoke_s", "platform.invoke_p99_us", "core.invoke_s",
		"microvm.restore_s", "microvm.run_s", "microvm.major_faults", "core.profiling_invocations",
		"workload.arrivals_s", "cluster.run_s", "cluster.pulls", "cluster.spills", "cluster.sheds",
		"migrate.tick_s", "migrate.waitfor_s", "migrate.moves", "migrate.moved_mib", "mem.charge_s",
		"runtime.gc_cpu_frac", "runtime.alloc_mb", "runtime.gc_cycles", "other_s", "trace_overhead_frac")
)

func nameSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// unitOf gives the unit of a per-layer metric a workload does not exercise.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_mib"):
		return "MiB"
	case strings.HasSuffix(name, ".bytes"):
		return "bytes"
	default:
		return "count"
	}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// resetPeakRSS restarts the kernel's peak-RSS mark (Linux), so peakRSSMB
// reads the peak since the call. Elsewhere peakRSSMB keeps reading the
// process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeDelta holds runtime/metrics readings, or their difference.
type runtimeDelta struct {
	gcCycles, allocBytes, gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{gcCycles: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeDelta) gcCPUFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

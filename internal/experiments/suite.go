// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the simulation substrate. Each experiment is a
// function from a Suite (shared configuration plus cached TOSS builds) to a
// Table whose rows mirror the paper's artifact; aggregate findings the paper
// quotes in prose land in the table's notes.
//
// The Suite caches profiled snapshots per (function, input-set) so that the
// experiments sharing the all-inputs tiered snapshot (Fig. 5-9, Table II)
// pay for profiling once.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"toss/internal/core"
	"toss/internal/insight"
	"toss/internal/mem"
	"toss/internal/microvm"
	"toss/internal/obs"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/snapshot"
	"toss/internal/workload"
)

// Suite carries experiment configuration and caches.
type Suite struct {
	// Core is the TOSS configuration used to build snapshots.
	Core core.Config
	// Iterations is the number of repetitions for averaged measurements
	// (the paper uses 10; the default suite uses 5 to keep the harness
	// fast — raise it for tighter error bars).
	Iterations int
	// BaseSeed makes the whole suite deterministic.
	BaseSeed int64
	// Obs, when set, records tier placements and measured phases of the
	// observability-wired experiments (Fig. 7/9) on its residency timelines.
	// Attach with SetRecorder so machine-level observations flow too.
	Obs *obs.Recorder
	// FleetSink, when set, collects the fleet decision traces of the
	// cluster experiments (ext9): each swept cell records its best
	// sustained run's routing/scaling event log, rendered as cell-tagged
	// JSON lines, under a stable cell name. The sink folds parallel cells
	// by sorted cell name, so the concatenated log is byte-identical for
	// any worker-pool size.
	FleetSink *par.Sink[string]
	// InsightSink, when set, collects the alert-wired experiments'
	// (ext10, ext11) per-cell insight results: virtual-time series,
	// SLO-alert fire/resolve edges, and rule-evaluation counts. The
	// alerts are computed either way (the tables note them); the sink
	// only exports them. It folds parallel cells by sorted cell name, so
	// the alert log and dump are byte-identical at any worker-pool size —
	// and unlike Obs it is a pure post-run consumer, so attaching it does
	// not force the pool serial.
	InsightSink *insight.Sink
	// Workers bounds the experiment engine's parallelism (see Pool). Zero
	// or one runs everything serially. Set before the first Run.
	Workers int
	// ClusterScale scales the horizon of the day-scale cluster experiment
	// (ext10) and the epoch count of the migration sweep (ext11). Zero or 1
	// runs full scale (~1.26M invocations for ext10); CI smoke and the
	// determinism tests set ~0.02 so -race runs stay quick. The arrival
	// shape is scale-invariant, so reduced runs exercise the same code
	// paths.
	ClusterScale float64

	poolOnce sync.Once
	pool     *par.Pool

	buildMu sync.Mutex
	builds  map[buildKey]*buildEntry
}

// build is a cached TOSS pipeline outcome.
type build struct {
	pd       *core.ProfileData
	analysis *core.Analysis
	tiered   *snapshot.Tiered
}

// buildKey canonically identifies one TOSS pipeline build: the function
// plus the exact profiling input sequence. Levels are order-significant
// (profiling round-robins through them), so the key encodes them
// positionally — one byte per level — rather than via a formatted string
// that distinct slices could collide on.
type buildKey struct {
	function string
	levels   string
}

func keyFor(spec *workload.Spec, levels []workload.Level) buildKey {
	enc := make([]byte, len(levels))
	for i, lv := range levels {
		enc[i] = byte(lv)
	}
	return buildKey{function: spec.Name, levels: string(enc)}
}

// buildEntry is one singleflight slot in the build cache: the first
// goroutine to claim the key runs the pipeline inside the Once; concurrent
// experiments needing the same build block on it and share the result.
type buildEntry struct {
	once sync.Once
	b    *build
	err  error
}

// Pool returns the worker pool experiments fan cells out on. It is serial
// when Workers <= 1 and whenever a recorder, observer, metrics sink, or
// suite-level fault injector is attached — those consumers record (or, for
// the injector, sequence-count) events in arrival order, mirroring faasim's
// tracing-forces-workers=1 rule. Experiments that build their own per-cell
// injectors (ext8) stay parallel-safe: each cell's sequence counters are
// private.
func (s *Suite) Pool() *par.Pool {
	if s.Workers <= 1 || s.Obs != nil || s.Core.VM.Observer != nil || s.Core.VM.Metrics != nil || s.Core.VM.Faults != nil {
		return par.Serial
	}
	s.poolOnce.Do(func() { s.pool = par.New(s.Workers) })
	return s.pool
}

// NewSuite returns the default suite configuration. The convergence window
// is scaled from the paper's N=100 down to 12: the unified pattern's change
// signal is identical, only the confirmation tail is shortened, which
// changes nothing about the resulting snapshot for these deterministic
// workloads (seed jitter saturates the union within a few dozen runs).
func NewSuite() *Suite {
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 12
	cfg.ReprofileBudget = 0 // experiments build snapshots explicitly
	return &Suite{
		Core:       cfg,
		Iterations: 5,
		BaseSeed:   1,
	}
}

// SetRecorder attaches a flight recorder to the suite: experiment-built
// machines report restores and faults to it (via the microvm observer), and
// the wired experiments push placements and advance its virtual clock. Call
// before Run; pass nil to detach.
func (s *Suite) SetRecorder(r *obs.Recorder) {
	s.Obs = r
	if r == nil {
		s.Core.VM.Observer = nil // avoid a typed-nil interface
		return
	}
	s.Core.VM.Observer = r
}

// AllLevels is the paper's full input mix; LevelIVOnly is the input-IV-only
// snapshot of §VI-C3.
var (
	AllLevels   = []workload.Level{workload.I, workload.II, workload.III, workload.IV}
	LevelIVOnly = []workload.Level{workload.IV}
)

// maxProfilingInvocations bounds the convergence loop.
const maxProfilingInvocations = 400

// buildFor runs the TOSS pipeline (Steps I-IV) for a function over an input
// mix and caches the result. Concurrent callers asking for the same
// (function, input-mix) build block on a single pipeline run (singleflight)
// and share its outcome.
func (s *Suite) buildFor(spec *workload.Spec, levels []workload.Level) (*build, error) {
	key := keyFor(spec, levels)
	s.buildMu.Lock()
	if s.builds == nil {
		s.builds = make(map[buildKey]*buildEntry)
	}
	e, ok := s.builds[key]
	if !ok {
		e = &buildEntry{}
		s.builds[key] = e
	}
	s.buildMu.Unlock()
	e.once.Do(func() { e.b, e.err = s.runPipeline(spec, levels) })
	return e.b, e.err
}

// runPipeline executes Steps I-IV uncached.
func (s *Suite) runPipeline(spec *workload.Spec, levels []workload.Level) (*build, error) {
	pd, _, err := core.NewProfileData(s.Core, spec, levels[0], s.BaseSeed)
	if err != nil {
		return nil, err
	}
	stable := 0
	for i := 0; stable < s.Core.ConvergenceWindow; i++ {
		if i >= maxProfilingInvocations {
			return nil, fmt.Errorf("experiments: %s did not converge in %d invocations", spec.Name, i)
		}
		lv := levels[i%len(levels)]
		_, changed, err := pd.ProfileInvocation(s.Core, lv, s.BaseSeed+int64(i)+1, 1)
		if err != nil {
			return nil, err
		}
		if changed {
			stable = 0
		} else {
			stable++
		}
	}
	analysis, err := core.Analyze(s.Core, pd)
	if err != nil {
		return nil, err
	}
	return &build{pd: pd, analysis: analysis, tiered: core.BuildSnapshot(pd, analysis)}, nil
}

// execResident measures execution time of (spec, lv, seed) fully resident
// under a placement at a concurrency level.
func (s *Suite) execResident(spec *workload.Spec, lv workload.Level, seed int64, placement *mem.Placement, conc int) (simtime.Duration, error) {
	layout, err := spec.Layout()
	if err != nil {
		return 0, err
	}
	tr, err := spec.Trace(lv, seed)
	if err != nil {
		return 0, err
	}
	vm := microvm.NewResident(s.Core.VM, layout, placement, conc)
	vm.SetLabel(spec.Name)
	vm.SetRecordTruth(false)
	res, err := vm.Run(tr)
	if err != nil {
		return 0, err
	}
	return res.Exec, nil
}

// meanExecResident averages execResident over the suite's iterations with
// distinct seeds.
func (s *Suite) meanExecResident(spec *workload.Spec, lv workload.Level, seedBase int64, placement *mem.Placement, conc int) (float64, error) {
	var sum float64
	for it := 0; it < s.Iterations; it++ {
		d, err := s.execResident(spec, lv, seedBase+int64(it)*31, placement, conc)
		if err != nil {
			return 0, err
		}
		sum += float64(d)
	}
	return sum / float64(s.Iterations), nil
}

// Runner generates one experiment table.
type Runner func(*Suite) (*Table, error)

// registry maps experiment ids to runners, with a stable order.
var registryOrder = []string{
	"table1", "fig1", "fig2", "fig3", "fig5", "table2",
	"fig6", "fig7", "fig8", "fig9", "sec6c3a", "sec6c3b",
	"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "ext9",
	"ext10", "ext11",
}

var registry = map[string]Runner{
	"table1":  Table1Inventory,
	"fig1":    Fig1WorkingSetCharacterization,
	"fig2":    Fig2FullSlowTierSlowdown,
	"fig3":    Fig3ReapInputMismatch,
	"fig5":    Fig5MinimumMemoryCost,
	"table2":  Table2SlowTierShare,
	"fig6":    Fig6IncrementalBinOffload,
	"fig7":    Fig7SetupTime,
	"fig8":    Fig8InvocationTime,
	"fig9":    Fig9Scalability,
	"sec6c3a": SnapshotCostVariance,
	"sec6c3b": PlacementGeneralization,
	"ext1":    ExtKeepAlive,
	"ext2":    ExtProfilingVsArrivalPattern,
	"ext3":    ExtTierTechnologies,
	"ext4":    ExtBilling,
	"ext5":    ExtMemoryIntensity,
	"ext6":    ExtFaaSnapInflation,
	"ext7":    ExtPackingDensity,
	"ext8":    ExtFaultTolerance,
	"ext9":    ExtClusterScaling,
	"ext10":   ExtMillionDay,
	"ext11":   ExtTierMigration,
}

// IDs returns all experiment identifiers in canonical order.
func IDs() []string { return append([]string(nil), registryOrder...) }

// Known reports whether id names a registered experiment.
func Known(id string) bool { _, ok := registry[id]; return ok }

// Run executes one experiment by id.
func (s *Suite) Run(id string) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		known := append([]string(nil), registryOrder...)
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
	}
	return r(s)
}

// Timed pairs one experiment's table with the wall-clock time it took.
type Timed struct {
	ID      string
	Table   *Table
	Elapsed time.Duration
}

// RunTimed executes the given experiments through the suite's pool —
// concurrently when the pool is parallel, in order when serial — and
// returns (table, wall-clock) pairs in input order. Experiments are
// independent and every cell is deterministic, so the rendered tables are
// byte-identical regardless of the pool.
//
// On failure the returned error names the failing experiment and lists the
// experiments that did complete; the result slice still carries the
// completed prefix.
func (s *Suite) RunTimed(ids []string) ([]Timed, error) {
	res, err := par.Map(s.Pool(), ids, func(_ int, id string) (Timed, error) {
		start := time.Now()
		t, err := s.Run(id)
		if err != nil {
			return Timed{ID: id}, err
		}
		return Timed{ID: id, Table: t, Elapsed: time.Since(start)}, nil
	})
	if err == nil {
		return res, nil
	}
	var pe *par.Error
	if !errors.As(err, &pe) {
		return nil, err
	}
	var done []string
	for i, r := range res {
		if i != pe.Index && r.Table != nil {
			done = append(done, ids[i])
		}
	}
	err = fmt.Errorf("%s: %w", ids[pe.Index], pe.Err)
	if len(done) > 0 {
		err = fmt.Errorf("%s: %w (completed: %s)", ids[pe.Index], pe.Err, strings.Join(done, ", "))
	}
	return res[:pe.Index], err
}

// RunMany executes the given experiments through the suite's pool and
// returns their tables in input order. See RunTimed for error semantics.
func (s *Suite) RunMany(ids []string) ([]*Table, error) {
	timed, err := s.RunTimed(ids)
	out := make([]*Table, 0, len(timed))
	for _, r := range timed {
		out = append(out, r.Table)
	}
	return out, err
}

// RunAll executes every experiment in canonical order.
func (s *Suite) RunAll() ([]*Table, error) {
	return s.RunMany(IDs())
}

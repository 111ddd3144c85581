package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"toss/internal/par"
	"toss/internal/telemetry"
	"toss/internal/workload"
)

// reducedScaleBreaks are the claims that fail at the cluster scale
// TestParallelRunAllByteIdentical runs (0.02): with 12 epochs, the lean
// shape's oracle mean (63.38 ms) is above full migration's (62.39 ms). It
// holds at scale 0.5 (64.65 vs 65.57 ms) and at full scale.
var reducedScaleBreaks = []string{"ext11.lean.oracle_mean_at_most_full"}

// serialRun is the suite's serial run at the reduced cluster scale (ext10
// at 2% of the day; full scale is benchmarked, not tested). It runs once per
// test binary: TestParallelRunAllByteIdentical compares it with a parallel
// run, and every claim check reads its tables.
var serialRun = sync.OnceValues(func() ([]*Table, error) {
	s := NewSuite()
	s.ClusterScale = 0.02
	return s.RunAll()
})

// requireClaims fails unless each named claim is stated by the serial run
// and holds.
func requireClaims(t *testing.T, ids ...string) {
	t.Helper()
	tables, err := serialRun()
	if err != nil {
		t.Fatal(err)
	}
	holds := map[string]bool{}
	for _, tab := range tables {
		for _, c := range tab.claims {
			holds[c.id] = c.holds
		}
	}
	for _, id := range ids {
		h, stated := holds[id]
		switch {
		case !stated:
			t.Errorf("claim %s is not stated", id)
		case !h:
			t.Errorf("claim %s does not hold", id)
		}
	}
}

// checkClaims holds a run's tables to their claims: every table states at
// least one, every id is unique and starts with its table's id, and the
// claims that fail are exactly want, in order.
func checkClaims(t *testing.T, tables []*Table, want []string) {
	t.Helper()
	seen := map[string]bool{}
	var broken []string
	for _, tab := range tables {
		if len(tab.claims) == 0 {
			t.Errorf("%s states no claim", tab.ID)
		}
		for _, c := range tab.claims {
			if !strings.HasPrefix(c.id, tab.ID+".") {
				t.Errorf("%s: claim id %q does not start with %q", tab.ID, c.id, tab.ID+".")
			}
			if seen[c.id] {
				t.Errorf("%s: claim id %q stated twice", tab.ID, c.id)
			}
			seen[c.id] = true
			if !c.holds {
				broken = append(broken, c.id)
			}
		}
	}
	if !slices.Equal(broken, want) {
		t.Errorf("claims that do not hold: %q, want %q", broken, want)
	}
}

// TestParallelRunAllByteIdentical is the engine's core guarantee: the whole
// suite run over an 8-worker pool renders every table — ASCII, CSV, and
// JSON — byte-for-byte identical to a serial run. Under -race this doubles
// as the concurrency exercise for the pool, the singleflight build cache,
// and the trace/layout/region memos. The serial tables are also held to
// their claims (checkClaims).
func TestParallelRunAllByteIdentical(t *testing.T) {
	serialTables, err := serialRun()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("claims", func(t *testing.T) { checkClaims(t, serialTables, reducedScaleBreaks) })
	parallel := NewSuite()
	parallel.ClusterScale = 0.02
	parallel.Workers = 8
	if parallel.Pool() == par.Serial {
		t.Fatal("Workers=8 suite should not run on the serial pool")
	}
	parTables, err := parallel.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(serialTables) != len(parTables) {
		t.Fatalf("serial produced %d tables, parallel %d", len(serialTables), len(parTables))
	}
	for i, st := range serialTables {
		pt := parTables[i]
		if st.ID != pt.ID {
			t.Fatalf("table %d: serial id %s, parallel id %s", i, st.ID, pt.ID)
		}
		if st.String() != pt.String() {
			t.Errorf("%s: ASCII rendering differs between serial and parallel runs", st.ID)
		}
		sc, err1 := st.CSV()
		pc, err2 := pt.CSV()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: csv render: %v %v", st.ID, err1, err2)
		}
		if sc != pc {
			t.Errorf("%s: CSV rendering differs between serial and parallel runs", st.ID)
		}
		sj, err1 := st.JSON()
		pj, err2 := pt.JSON()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: json render: %v %v", st.ID, err1, err2)
		}
		if sj != pj {
			t.Errorf("%s: JSON rendering differs between serial and parallel runs", st.ID)
		}
	}
}

// TestExt10SerialParallelIdentical pins the streamed million-day experiment
// specifically: a serial run and an 8-worker run (where the two fleets'
// event loops execute concurrently) must render byte-identically. The
// arrival stream is pulled lazily inside each cell, so this also covers
// generator determinism under concurrent cells.
func TestExt10SerialParallelIdentical(t *testing.T) {
	render := func(workers int) string {
		s := NewSuite()
		s.ClusterScale = 0.02
		s.Workers = workers
		tab, err := s.Run("ext10")
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	serial, parallel := render(0), render(8)
	if serial != parallel {
		t.Errorf("ext10 rendering differs between serial and 8-worker runs:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestExt11SerialParallelIdentical pins the migration-frontier experiment:
// each cell drives its own migration engine (heat folding, greedy repack,
// eviction cascades, prefetch), and the twelve cells run concurrently under
// the pool, so this covers engine determinism end to end: a serial run and
// an 8-worker run must render byte-identically.
func TestExt11SerialParallelIdentical(t *testing.T) {
	render := func(workers int) string {
		s := NewSuite()
		s.ClusterScale = 0.25
		s.Workers = workers
		tab, err := s.Run("ext11")
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	serial, parallel := render(0), render(8)
	if serial != parallel {
		t.Errorf("ext11 rendering differs between serial and 8-worker runs:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestPoolParallelWhenObserved pins that observing a suite does not
// serialize it: a metrics registry sums the same in any order, so only
// Workers (and a suite-level fault injector, see
// TestPoolSerialWithSuiteInjector) decide the pool.
func TestPoolParallelWhenObserved(t *testing.T) {
	plain := NewSuite()
	plain.Workers = 8
	if plain.Pool() == par.Serial {
		t.Error("plain Workers=8 suite should get a parallel pool")
	}
	if got := plain.Pool().Workers(); got != 8 {
		t.Errorf("pool workers = %d, want 8", got)
	}

	metered := NewSuite()
	metered.Workers = 8
	metered.Core.VM.Metrics = telemetry.NewMetrics()
	if got := metered.Pool().Workers(); got != 8 {
		t.Errorf("suite with a metrics registry attached: pool workers = %d, want 8", got)
	}

	single := NewSuite()
	single.Workers = 1
	if single.Pool() != par.Serial {
		t.Error("Workers=1 suite must use the serial pool")
	}
}

// TestMetricsParallelIdentical pins what lets tossctl -metrics keep its
// pool: parallel cells write the registry in a different order, but the
// counters and histograms sum the same, and the only gauges they set (ext1's
// sched gauges) end on the same value in every cell.
func TestMetricsParallelIdentical(t *testing.T) {
	dump := func(workers int) string {
		s := NewSuite()
		s.Iterations = 1
		s.Workers = workers
		met := telemetry.NewMetrics()
		s.Core.VM.Metrics = met
		if got := s.Pool().Workers(); got != workers {
			t.Fatalf("pool workers = %d, want %d", got, workers)
		}
		if _, err := s.RunMany([]string{"ext1", "fig2"}); err != nil {
			t.Fatal(err)
		}
		return met.Dump()
	}
	serial, parallel := dump(1), dump(8)
	if serial == "" {
		t.Fatal("empty metrics dump")
	}
	if serial != parallel {
		t.Errorf("metrics dump differs between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestRunManyReportsCompleted covers the error path: a failing experiment
// names itself and lists the experiments that did finish, and the returned
// prefix holds their tables.
func TestRunManyReportsCompleted(t *testing.T) {
	s := NewSuite()
	tables, err := s.RunMany([]string{"table1", "definitely-not-an-experiment", "fig1"})
	if err == nil {
		t.Fatal("expected an error for the unknown experiment id")
	}
	if !strings.Contains(err.Error(), "definitely-not-an-experiment") {
		t.Errorf("error does not name the failing experiment: %v", err)
	}
	if !strings.Contains(err.Error(), "completed: table1") {
		t.Errorf("error does not list completed experiments: %v", err)
	}
	if len(tables) != 1 || tables[0] == nil || tables[0].ID != "table1" {
		t.Fatalf("expected the completed prefix [table1], got %d tables", len(tables))
	}
}

// TestParallelBuildSingleflight hammers the build cache from 8 workers:
// every worker asks for the same (function, levels) build, exactly one
// pipeline run must happen, and all callers share its outcome.
func TestParallelBuildSingleflight(t *testing.T) {
	s := NewSuite()
	s.Workers = 8
	spec := workload.ByNameMust("json_load_dump")
	builds, err := par.Map(s.Pool(), make([]struct{}, 16), func(int, struct{}) (*build, error) {
		return s.buildFor(spec, AllLevels)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range builds {
		if b == nil {
			t.Fatalf("build %d is nil", i)
		}
		if b != builds[0] {
			t.Errorf("build %d is a distinct pipeline outcome; singleflight failed", i)
		}
	}
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

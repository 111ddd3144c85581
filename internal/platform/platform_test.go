package platform

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/telemetry"
	"toss/internal/workload"
)

func testPlatform(t *testing.T) *Platform {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 3
	cfg.ReprofileBudget = 0
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRegister(t *testing.T, p *Platform, name string, mode Mode) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	if err := p.Register(spec, mode); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeTOSS.String() != "toss" || ModeREAP.String() != "reap" || ModeDRAM.String() != "dram" {
		t.Error("Mode.String wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode String empty")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Bins = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	p := testPlatform(t)
	if err := p.Register(nil, ModeTOSS); err == nil {
		t.Error("nil spec accepted")
	}
	mustRegister(t, p, "pyaes", ModeTOSS)
	spec, _ := workload.ByName("pyaes")
	if err := p.Register(spec, ModeREAP); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := p.Register(mustSpec(t, "compress"), Mode(42)); err == nil {
		t.Error("unknown mode accepted")
	}
	if len(p.fns) != 1 {
		t.Errorf("%d functions registered, want 1", len(p.fns))
	}
}

func mustSpec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatal(name)
	}
	return s
}

func TestInvokeUnknownFunction(t *testing.T) {
	p := testPlatform(t)
	rec := p.Invoke("nope", workload.I, 1)
	if rec.Err == nil {
		t.Error("unknown function invocation succeeded")
	}
}

func TestDRAMModeLifecycle(t *testing.T) {
	p := testPlatform(t)
	mustRegister(t, p, "pyaes", ModeDRAM)
	first := p.Invoke("pyaes", workload.II, 1)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	second := p.Invoke("pyaes", workload.II, 2)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	// First invocation boots (slow setup); later ones lazy-restore.
	if second.Setup >= first.Setup {
		t.Errorf("restore setup %v not below boot setup %v", second.Setup, first.Setup)
	}
	st, err := p.Stats("pyaes")
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations != 2 || st.NormCost != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanExec() <= 0 || st.MaxExec <= 0 {
		t.Errorf("exec stats empty: %+v", st)
	}
}

// TestREAPModeThroughPlatform serves a matched input: the recorded working
// set covers every page, so the restore takes no faults.
func TestREAPModeThroughPlatform(t *testing.T) {
	p := testPlatform(t)
	mustRegister(t, p, "json_load_dump", ModeREAP)
	if rec := p.Invoke("json_load_dump", workload.III, 1); rec.Err != nil {
		t.Fatal(rec.Err)
	}
	rec := p.Invoke("json_load_dump", workload.III, 1)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if rec.Faults != 0 {
		t.Errorf("matched REAP invocation faulted %d pages", rec.Faults)
	}
}

func TestFaaSnapModeThroughPlatform(t *testing.T) {
	p := testPlatform(t)
	mustRegister(t, p, "json_load_dump", ModeFaaSnap)
	if rec := p.Invoke("json_load_dump", workload.III, 1); rec.Err != nil {
		t.Fatal(rec.Err)
	}
	rec := p.Invoke("json_load_dump", workload.III, 1)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if rec.Faults != 0 {
		t.Errorf("matched FaaSnap invocation faulted %d pages", rec.Faults)
	}
	if rec.Mode != ModeFaaSnap || ModeFaaSnap.String() != "faasnap" {
		t.Error("mode labeling wrong")
	}
}

func TestTOSSModeConvergesAndBillsCheaper(t *testing.T) {
	p := testPlatform(t)
	mustRegister(t, p, "pyaes", ModeTOSS)
	var last Record
	for i := 0; i < 300; i++ {
		last = p.Invoke("pyaes", workload.Levels[i%4], int64(i+1))
		if last.Err != nil {
			t.Fatal(last.Err)
		}
		st, _ := p.Stats("pyaes")
		if st.Phase == core.PhaseTiered {
			break
		}
	}
	st, err := p.Stats("pyaes")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != core.PhaseTiered {
		t.Fatalf("did not reach tiered phase; last phase %v", last.Phase)
	}
	if st.NormCost >= 1 || st.NormCost < 0.4 {
		t.Errorf("NormCost = %v, want [0.4, 1)", st.NormCost)
	}
	if st.SlowShare <= 0.5 {
		t.Errorf("SlowShare = %v, want > 0.5", st.SlowShare)
	}
}

func TestStatsUnknownFunction(t *testing.T) {
	p := testPlatform(t)
	if _, err := p.Stats("nope"); err == nil {
		t.Error("unknown function stats succeeded")
	}
}

func TestReplayConcurrent(t *testing.T) {
	p := testPlatform(t)
	mustRegister(t, p, "pyaes", ModeDRAM)
	mustRegister(t, p, "compress", ModeDRAM)
	var reqs []Request
	for i := 0; i < 12; i++ {
		name := "pyaes"
		if i%2 == 0 {
			name = "compress"
		}
		reqs = append(reqs, Request{Function: name, Level: workload.II, Seed: int64(i + 1)})
	}
	records := p.Replay(reqs, 4)
	if len(records) != len(reqs) {
		t.Fatalf("got %d records for %d requests", len(records), len(reqs))
	}
	for _, r := range records {
		if r.Err != nil {
			t.Fatalf("replay error: %v", r.Err)
		}
		if r.Total() != r.Setup+r.Exec {
			t.Error("Total != Setup+Exec")
		}
	}
	a, _ := p.Stats("pyaes")
	b, _ := p.Stats("compress")
	if a.Invocations+b.Invocations != int64(len(reqs)) {
		t.Errorf("stats count %d+%d != %d", a.Invocations, b.Invocations, len(reqs))
	}
}

// TestReplayDeterministic pins that a replay's output is a function of the
// trace and the modeled concurrency alone. Two fresh platforms with a
// tracer, a fault injector and a metrics registry attached replay the same
// trace at 4 workers and must agree on every record, the Chrome trace bytes,
// the injector's firing counts and the metrics dump. At 1 worker, Replay
// must equal a loop of Invoke.
func TestReplayDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"pyaes", "json_load_dump", "compress"}
	reqs := make([]Request, 60)
	for i := range reqs {
		reqs[i] = Request{
			Function: names[rng.Intn(len(names))],
			Level:    workload.Levels[rng.Intn(len(workload.Levels))],
			Seed:     rng.Int63n(1 << 40),
		}
	}
	type run struct {
		records []Record
		trace   []byte
		faults  map[fault.Site]int64
		metrics string
	}
	observed := func(serve func(*Platform) []Record) run {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.ConvergenceWindow = 3
		cfg.ReprofileBudget = 0
		inj, err := fault.New(fault.UniformPlan(0.05, 1))
		if err != nil {
			t.Fatal(err)
		}
		cfg.VM.Faults = inj
		cfg.VM.Metrics = telemetry.NewMetrics()
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tracer := telemetry.NewTracer()
		p.SetTracer(tracer)
		mustRegister(t, p, "pyaes", ModeTOSS)
		mustRegister(t, p, "json_load_dump", ModeDRAM)
		mustRegister(t, p, "compress", ModeSlow)
		records := serve(p)
		var trace bytes.Buffer
		if err := telemetry.WriteChromeTrace(&trace, tracer.Spans()); err != nil {
			t.Fatal(err)
		}
		return run{records, trace.Bytes(), inj.Counts(), cfg.VM.Metrics.Dump()}
	}
	replay := func(workers int) func(*Platform) []Record {
		return func(p *Platform) []Record { return p.Replay(reqs, workers) }
	}
	same := func(what string, a, b run) {
		t.Helper()
		if !reflect.DeepEqual(a.records, b.records) {
			t.Errorf("%s: records differ", what)
		}
		if !bytes.Equal(a.trace, b.trace) {
			t.Errorf("%s: Chrome traces differ", what)
		}
		if !reflect.DeepEqual(a.faults, b.faults) {
			t.Errorf("%s: injector counts differ: %v vs %v", what, a.faults, b.faults)
		}
		if a.metrics != b.metrics {
			t.Errorf("%s: metrics dumps differ:\n%s\nvs\n%s", what, a.metrics, b.metrics)
		}
	}

	first := observed(replay(4))
	if len(first.records) != len(reqs) || len(first.faults) == 0 {
		t.Fatalf("got %d records and %d firing sites; the comparison would be vacuous",
			len(first.records), len(first.faults))
	}
	same("two replays at 4 workers", first, observed(replay(4)))

	loop := observed(func(p *Platform) []Record {
		records := make([]Record, len(reqs))
		for i, req := range reqs {
			records[i] = p.Invoke(req.Function, req.Level, req.Seed)
		}
		return records
	})
	same("Replay at 1 worker vs a loop of Invoke", observed(replay(1)), loop)
}

func TestConcurrentInvokeRace(t *testing.T) {
	// Exercised with -race: concurrent invocations across functions.
	p := testPlatform(t)
	mustRegister(t, p, "pyaes", ModeDRAM)
	mustRegister(t, p, "float_operation", ModeREAP)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "pyaes"
			if g%2 == 0 {
				name = "float_operation"
			}
			for i := 0; i < 3; i++ {
				if rec := p.Invoke(name, workload.I, int64(g*10+i+1)); rec.Err != nil {
					t.Errorf("invoke: %v", rec.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

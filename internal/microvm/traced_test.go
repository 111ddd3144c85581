package microvm

import (
	"bytes"
	"testing"

	"toss/internal/telemetry"
	"toss/internal/workload"
)

// tracedFixture boots, snapshots, and lazily restores one function, running
// the restored machine under a tracer.
func tracedFixture(t testing.TB, tracer *telemetry.Tracer, met *telemetry.Metrics) (Result, *telemetry.Span) {
	cfg := DefaultConfig()
	cfg.Metrics = met
	spec, ok := workload.ByName("pyaes")
	if !ok {
		t.Fatal("pyaes missing")
	}
	layout, err := spec.Layout()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Trace(workload.II, 7)
	if err != nil {
		t.Fatal(err)
	}
	boot := NewBooted(cfg, layout)
	if _, err := boot.Run(tr); err != nil {
		t.Fatal(err)
	}
	snap, _ := boot.SnapshotTraced("pyaes", nil, 0)

	root := tracer.Root(telemetry.KindInvocation, "pyaes", 0)
	vm := RestoreLazy(cfg, layout, snap, 1)
	res, err := vm.RunTraced(tr, root)
	if err != nil {
		t.Fatal(err)
	}
	root.EndAt(res.Total())
	return res, root
}

func TestRunTracedSpanTree(t *testing.T) {
	tracer := telemetry.NewTracer()
	res, root := tracedFixture(t, tracer, nil)
	spans := tracer.Spans()

	var restore, exec *telemetry.Span
	var faultSpans []*telemetry.Span
	for _, s := range spans {
		switch s.Kind {
		case telemetry.KindSnapshotRestore:
			if s.Parent == root.ID {
				restore = s
			}
		case telemetry.KindExec:
			exec = s
		case telemetry.KindDemandFault:
			faultSpans = append(faultSpans, s)
		}
	}
	if restore == nil || exec == nil {
		t.Fatalf("missing restore/exec span in %d spans", len(spans))
	}
	if restore.Duration() != res.Setup {
		t.Errorf("restore span %v != setup %v", restore.Duration(), res.Setup)
	}
	if exec.Start != res.Setup || exec.Duration() != res.Exec {
		t.Errorf("exec span [%v +%v] != [%v +%v]", exec.Start, exec.Duration(), res.Setup, res.Exec)
	}
	if res.MajorFaults > 0 && len(faultSpans) == 0 {
		t.Error("faults occurred but no fault spans")
	}
	// Fault spans partition FaultTime exactly.
	var faultTotal int64
	for _, s := range faultSpans {
		if s.Parent != exec.ID {
			t.Errorf("fault span parented to %d, want exec %d", s.Parent, exec.ID)
		}
		faultTotal += s.Duration().Nanoseconds()
	}
	if faultTotal != res.FaultTime.Nanoseconds() {
		t.Errorf("fault spans sum to %d ns, FaultTime is %d ns", faultTotal, res.FaultTime.Nanoseconds())
	}
	// Setup parts tile the restore span.
	var partsEnd int64
	for _, s := range spans {
		if s.Parent == restore.ID {
			if e := s.End.Nanoseconds(); e > partsEnd {
				partsEnd = e
			}
		}
	}
	if partsEnd != res.Setup.Nanoseconds() {
		t.Errorf("setup parts end at %d, setup is %d", partsEnd, res.Setup.Nanoseconds())
	}
}

func TestRunTracedMetrics(t *testing.T) {
	met := telemetry.NewMetrics()
	res, _ := tracedFixture(t, telemetry.NewTracer(), met)
	// The fixture runs twice (boot + restore), both with metrics attached.
	if got := met.Counter(telemetry.MetricRuns).Value(); got != 2 {
		t.Errorf("runs counter = %d", got)
	}
	if met.Counter(telemetry.MetricMajorFaults).Value() < res.MajorFaults {
		t.Error("major-fault counter below restored run's faults")
	}
	observed := map[string]int64{}
	met.Each(func(name string, kind telemetry.Kind, s telemetry.Sample) {
		if kind == telemetry.KindHistogram {
			observed[name] = s.Count
		}
	})
	if observed[telemetry.MetricFaultLatency] == 0 {
		t.Error("no fault latencies recorded")
	}
	if observed[telemetry.MetricSnapshotWrite] != 1 {
		t.Error("snapshot-create histogram not recorded")
	}
	fast, slow := met.TierUtilization()
	if fast <= 0 || slow != 0 {
		t.Errorf("tier utilization fast=%v slow=%v (all-DRAM run)", fast, slow)
	}
}

// Two identical traced runs must export byte-identical traces.
func TestRunTracedDeterministic(t *testing.T) {
	render := func() string {
		tracer := telemetry.NewTracer()
		tracedFixture(t, tracer, nil)
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, tracer.Spans()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("traced run not byte-deterministic")
	}
}

// BenchmarkRunTracedOverhead guards the disabled-tracer hot path: Run with a
// nil span and nil metrics (the "off" configuration every experiment uses)
// versus a fully recording run. The off path must stay within noise of the
// pre-telemetry baseline — the <2% acceptance bound on the Fig. 8 bench.
func BenchmarkRunTracedOverhead(b *testing.B) {
	spec, _ := workload.ByName("pyaes")
	layout, _ := spec.Layout()
	tr, _ := spec.Trace(workload.II, 7)
	cfg := DefaultConfig()
	boot := NewBooted(cfg, layout)
	if _, err := boot.Run(tr); err != nil {
		b.Fatal(err)
	}
	snap, _ := boot.SnapshotTraced("pyaes", nil, 0)

	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm := RestoreLazy(cfg, layout, snap, 1)
			vm.SetRecordTruth(false)
			if _, err := vm.RunTraced(tr, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tracer := telemetry.NewTracer()
		mcfg := cfg
		mcfg.Metrics = telemetry.NewMetrics()
		for i := 0; i < b.N; i++ {
			vm := RestoreLazy(mcfg, layout, snap, 1)
			vm.SetRecordTruth(false)
			root := tracer.Root(telemetry.KindInvocation, "pyaes", 0)
			if _, err := vm.RunTraced(tr, root); err != nil {
				b.Fatal(err)
			}
			if i%1024 == 0 {
				tracer = telemetry.NewTracer()
			}
		}
	})
}

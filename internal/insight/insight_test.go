package insight

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"toss/internal/emit"
	"toss/internal/par"
	"toss/internal/simtime"
)

// TestSeriesFirstAndLast: the first observation fixes the first time, and
// the last point is the latest in time; an earlier one after it counts in
// the aggregates only.
func TestSeriesFirstAndLast(t *testing.T) {
	e := NewEngine()
	e.Observe("x", 1500*simtime.Millisecond, 2)
	e.Observe("x", 1900*simtime.Millisecond, 4)
	e.Observe("x", 3*simtime.Second, 10)
	sum, ok := e.Summary("x")
	if !ok || sum.Points != 3 || sum.Min != 2 || sum.Max != 10 || sum.Mean != 16.0/3 {
		t.Fatalf("aggregates: %+v", sum)
	}
	if sum.FirstAt != 1500*simtime.Millisecond || sum.LastAt != 3*simtime.Second || sum.Last != 10 {
		t.Fatalf("first/last: %+v", sum)
	}
	e.Observe("x", 0, 1)
	sum, _ = e.Summary("x")
	if sum.Points != 4 || sum.Min != 1 || sum.FirstAt != 1500*simtime.Millisecond ||
		sum.Last != 10 || sum.LastAt != 3*simtime.Second {
		t.Fatalf("after an earlier point: %+v", sum)
	}
	// A series observed only before time 0 ends at its last point.
	e.Observe("early", -5*simtime.Second, 3)
	if sum, _ = e.Summary("early"); sum.FirstAt != -5*simtime.Second || sum.LastAt != -5*simtime.Second || sum.Last != 3 {
		t.Fatalf("series before time 0: %+v", sum)
	}
}

// TestEngineSeriesConcurrentFeeds: goroutines feeding series no rule
// watches may share an engine, and a Result taken meanwhile is consistent;
// every summary equals a serial feed's.
func TestEngineSeriesConcurrentFeeds(t *testing.T) {
	feed := func(e *Engine, name string) {
		for i := 0; i < 1000; i++ {
			e.Observe(name, simtime.Duration(i)*simtime.Millisecond, float64(i%7))
		}
	}
	serial, shared := NewEngine(), NewEngine()
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b", "c", "d"} {
		feed(serial, name)
		wg.Add(2)
		go func() { defer wg.Done(); feed(shared, name) }()
		go func() { defer wg.Done(); shared.Result("mid-feed") }()
	}
	wg.Wait()
	if got, want := shared.Result("c"), serial.Result("c"); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent feeds:\n got %+v\nwant %+v", got, want)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Observe("x", 0, 1) // must not panic
	e.ObserveLatency("x", 0, simtime.Millisecond)
	e.SetBlamer(nil)
	if e.Alerts() != nil || e.Firing() != nil || e.Evals() != 0 {
		t.Fatal("nil engine must return zero values")
	}
}

func TestThresholdRuleSustainedFor(t *testing.T) {
	e := NewEngine(Rule{
		Name: "hot", Kind: Threshold, Series: "util", Limit: 0.8,
		For: 10 * simtime.Second,
	})
	e.Observe("util", 0*simtime.Second, 0.5)
	e.Observe("util", 5*simtime.Second, 0.9)  // violation starts
	e.Observe("util", 10*simtime.Second, 0.9) // sustained 5s: still pending
	if len(e.Alerts()) != 0 {
		t.Fatalf("fired early: %+v", e.Alerts())
	}
	e.Observe("util", 15*simtime.Second, 0.95) // sustained 10s: fire
	al := e.Alerts()
	if len(al) != 1 || !al[0].Firing || al[0].At != 15*simtime.Second || al[0].Value != 0.95 {
		t.Fatalf("fire edge = %+v", al)
	}
	if got := e.Firing(); len(got) != 1 || got[0] != "hot" {
		t.Fatalf("Firing() = %v", got)
	}
	// Dip below resets both firing and the pending clock.
	e.Observe("util", 20*simtime.Second, 0.5)
	al = e.Alerts()
	if len(al) != 2 || al[1].Firing || al[1].At != 20*simtime.Second {
		t.Fatalf("resolve edge = %+v", al)
	}
	e.Observe("util", 21*simtime.Second, 0.9)
	e.Observe("util", 25*simtime.Second, 0.9)
	if len(e.Alerts()) != 2 {
		t.Fatal("pending clock did not reset after resolve")
	}
	if e.Evals() != 7 {
		t.Fatalf("evals = %d, want 7", e.Evals())
	}
}

func TestBurnRuleMultiWindow(t *testing.T) {
	// SLO 100ms; fast 10s window at 20%, slow 60s window at 10%.
	e := NewEngine(BurnRule("slo", "lat", 100*simtime.Millisecond,
		10*simtime.Second, 60*simtime.Second, 0.2, 0.1))
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	at := simtime.Duration(0)
	// 60s of healthy traffic, one sample per 100ms.
	for i := 0; i < 600; i++ {
		e.ObserveLatency("lat", at, ms(50))
		at += 100 * simtime.Millisecond
	}
	if len(e.Alerts()) != 0 {
		t.Fatalf("healthy traffic fired: %+v", e.Alerts())
	}
	// A short 2s blip violates the fast window but not the slow one.
	for i := 0; i < 20; i++ {
		e.ObserveLatency("lat", at, ms(500))
		at += 100 * simtime.Millisecond
	}
	if len(e.Alerts()) != 0 {
		t.Fatalf("short blip fired (slow window should have vetoed): %+v", e.Alerts())
	}
	// A sustained burn violates both windows -> fire.
	for i := 0; i < 100; i++ {
		e.ObserveLatency("lat", at, ms(500))
		at += 100 * simtime.Millisecond
	}
	al := e.Alerts()
	if len(al) != 1 || !al[0].Firing || al[0].Rule != "slo" {
		t.Fatalf("sustained burn alerts = %+v", al)
	}
	// Recovery drains the fast window -> resolve.
	for i := 0; i < 200; i++ {
		e.ObserveLatency("lat", at, ms(50))
		at += 100 * simtime.Millisecond
	}
	al = e.Alerts()
	if len(al) != 2 || al[1].Firing {
		t.Fatalf("recovery alerts = %+v", al)
	}
	if len(e.Firing()) != 0 {
		t.Fatalf("still firing after recovery: %v", e.Firing())
	}
}

func TestBurnWindowMemoryBound(t *testing.T) {
	// A long feed must not retain the whole stream: each window of a Burn
	// rule reclaims its dead prefix once it dominates.
	e := NewEngine(BurnRule("slo", "lat", simtime.Millisecond, simtime.Second, 2*simtime.Second, 0.5, 0.5))
	for i := 0; i < 100000; i++ {
		lat := simtime.Duration(0)
		if i%10 == 0 {
			lat = 2 * simtime.Millisecond
		}
		e.ObserveLatency("lat", simtime.Duration(i)*simtime.Millisecond, lat)
	}
	st := e.states[0]
	for _, w := range []*BurnWindow{&st.fast, &st.slow} {
		if n := len(w.points); n > 8192 {
			t.Fatalf("window retained %d points for a 1-2s window on a 100s feed", n)
		}
		if got := w.Fraction(); got < 0.09 || got > 0.11 {
			t.Fatalf("fraction = %v, want ~0.1", got)
		}
	}
}

func TestEngineBlame(t *testing.T) {
	e := NewEngine(Rule{Name: "t", Kind: Threshold, Series: "s", Limit: 1})
	e.SetBlamer(func(rule string, at simtime.Duration) string { return rule + "@" + at.String() })
	e.Observe("s", 3*simtime.Second, 5)
	al := e.Alerts()
	if len(al) != 1 || al[0].Blame != "t@3s" {
		t.Fatalf("blame = %+v", al)
	}
}

// feedDemo produces a small deterministic result with one fire/resolve pair.
func feedDemo(cell string) Result {
	e := NewEngine(Rule{Name: "hot-util", Kind: Threshold, Series: "util", Limit: 0.75, For: 2 * simtime.Second})
	e.SetBlamer(func(string, simtime.Duration) string { return "pyaes seg=snapshot.pull share=41.0%" })
	for i := 0; i <= 20; i++ {
		v := 0.5
		if i >= 8 && i < 15 {
			v = 0.9
		}
		e.Observe("util", simtime.Duration(i)*simtime.Second, v)
	}
	return e.Result(cell)
}

func TestAlertLogGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAlertLog(&buf, []Result{feedDemo("demo/cell")}); err != nil {
		t.Fatal(err)
	}
	want := `=== demo/cell ===
t=10s          FIRE     hot-util                         value=0.9  blame=pyaes seg=snapshot.pull share=41.0%
t=15s          RESOLVE  hot-util                         value=0.5
(2 edges; still firing at end: none)
`
	if got := buf.String(); got != want {
		t.Fatalf("alert log mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestDumpJSONRoundTripAndDeterminism(t *testing.T) {
	// Names are escaped as JSON strings, so control bytes survive.
	d := Dump{Schema: SchemaVersion, Cells: []Result{feedDemo("a\x01<&>"), feedDemo("b")}}
	var b1, b2 bytes.Buffer
	if err := WriteDumpJSON(&b1, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteDumpJSON(&b2, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("dump bytes not deterministic")
	}
	rd, err := ReadDump(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Schema != SchemaVersion || len(rd.Cells) != 2 {
		t.Fatalf("round trip: %+v", rd)
	}
	c := rd.Cells[0]
	orig := d.Cells[0]
	if c.Cell != orig.Cell || c.Evals != orig.Evals || len(c.Alerts) != len(orig.Alerts) || len(c.Series) != len(orig.Series) {
		t.Fatalf("cell mismatch: %+v vs %+v", c, orig)
	}
	if c.Alerts[0] != orig.Alerts[0] || c.Series[0] != orig.Series[0] {
		t.Fatalf("payload mismatch: %+v vs %+v", c.Alerts[0], orig.Alerts[0])
	}
	// Round-tripped dumps diff clean against themselves.
	sec, err := DiffDumps("self", d, rd, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions)+len(sec.Improvements)+len(sec.OnlyOld)+len(sec.OnlyNew) != 0 {
		t.Fatalf("self-diff not clean: %+v", sec)
	}
}

func TestSinkFoldsSorted(t *testing.T) {
	record := func(cells ...string) *par.Sink[Result] {
		s := par.NewSink[Result]()
		for _, c := range cells {
			s.Record(c, feedDemo(c))
		}
		return s
	}
	s := record("z/cell", "a/cell", "m/cell")
	res := s.Sorted()
	if len(res) != 3 || res[0].Cell != "a/cell" || res[2].Cell != "z/cell" {
		t.Fatalf("sink order: %+v", res)
	}
	// Recording in any order folds to the same bytes.
	s2 := record("m/cell", "z/cell", "a/cell")
	var b1, b2 bytes.Buffer
	if err := WriteAlertLog(&b1, s.Sorted()); err != nil {
		t.Fatal(err)
	}
	if err := WriteAlertLog(&b2, s2.Sorted()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("sink alert log depends on record order")
	}
	var nilSink *par.Sink[Result]
	nilSink.Record("x", Result{Cell: "x"})
	if nilSink.Len() != 0 || nilSink.Sorted() != nil {
		t.Fatal("nil sink must no-op")
	}
}

func TestVerdictDetectsInjectedRegression(t *testing.T) {
	base := Dump{Schema: SchemaVersion, Cells: []Result{feedDemo("ext/cell")}}
	// Inject a synthetic p99 regression: inflate one series' aggregates.
	bad := Dump{Schema: SchemaVersion, Cells: []Result{feedDemo("ext/cell")}}
	bad.Cells[0].Series = append([]SeriesSummary(nil), bad.Cells[0].Series...)
	for i := range bad.Cells[0].Series {
		s := bad.Cells[0].Series[i]
		s.Mean *= 2
		s.Max *= 2
		s.Last *= 2
		bad.Cells[0].Series[i] = s
	}
	sec, err := DiffDumps("base -> bad", base, bad, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	v := &Verdict{Threshold: 0.25, Sections: []Section{sec}}
	if !v.Failed() {
		t.Fatal("verdict missed a 2x regression")
	}
	var md bytes.Buffer
	if err := v.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "VERDICT: FAIL") {
		t.Fatalf("markdown verdict missing failure markers:\n%s", out)
	}
	if !strings.Contains(out, "ext/cell") || !strings.Contains(out, "series util mean") {
		t.Fatalf("markdown verdict does not name the regressed cell/metric:\n%s", out)
	}
	var html bytes.Buffer
	if err := v.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "REGRESSED") {
		t.Fatal("html verdict missing regression row")
	}

	// The clean pair passes.
	cleanSec, err := DiffDumps("base -> base", base, base, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	clean := &Verdict{Threshold: 0.25, Sections: []Section{cleanSec}}
	if clean.Failed() {
		t.Fatalf("clean pair failed: %+v", cleanSec)
	}
	var cleanMd bytes.Buffer
	if err := clean.WriteMarkdown(&cleanMd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cleanMd.String(), "VERDICT: PASS") {
		t.Fatalf("clean verdict not PASS:\n%s", cleanMd.String())
	}
}

func TestVerdictNoiseFloor(t *testing.T) {
	mk := func(mean float64) Dump {
		return Dump{Schema: SchemaVersion, Cells: []Result{{
			Cell:   "c",
			Series: []SeriesSummary{{Name: "tiny", Mean: emit.Float(mean)}},
		}}}
	}
	sec, err := DiffDumps("t", mk(1e-12), mk(5e-12), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 0 {
		t.Fatalf("sub-noise values regressed: %+v", sec.Regressions)
	}
}

func TestVerdictSchemaMismatch(t *testing.T) {
	if _, err := DiffDumps("t", Dump{Schema: 1}, Dump{Schema: 2}, 0.25); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

func BenchmarkAlertEngine(b *testing.B) {
	rules := []Rule{
		BurnRule("slo", "lat", 100*simtime.Millisecond, 5*simtime.Second, 60*simtime.Second, 0.1, 0.05),
		{Name: "hot", Kind: Threshold, Series: "lat", Limit: 400, For: simtime.Second},
	}
	b.ReportAllocs()
	b.ResetTimer()
	e := NewEngine(rules...)
	at := simtime.Duration(0)
	for i := 0; i < b.N; i++ {
		lat := simtime.Duration(50+i%200) * simtime.Millisecond
		e.ObserveLatency("lat", at, lat)
		at += 10 * simtime.Millisecond
	}
	b.StopTimer()
	if e.Evals() > 0 {
		b.ReportMetric(float64(e.Evals())/b.Elapsed().Seconds(), "evals/s")
	}
}

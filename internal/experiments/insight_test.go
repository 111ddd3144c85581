package experiments

import (
	"bytes"
	"strings"
	"testing"

	"toss/internal/insight"
)

// TestInsightSinkParallelIdentical pins the alert pipeline's parallelism
// invariant at the suite level: running both alert-wired experiments (ext10,
// ext11) with an insight sink attached must yield a byte-identical folded
// alert log AND a byte-identical insight dump between a serial and an
// 8-worker run. Cells land in the sink in nondeterministic completion order;
// sorted folding is what makes the artifacts diffable across CI runs — and
// what lets `tossctl report` compare them with zero noise.
func TestInsightSinkParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both alert-wired experiments twice")
	}
	run := func(workers int) (alog, dump []byte) {
		s := NewSuite()
		s.Workers = workers
		s.ClusterScale = 0.02
		s.InsightSink = insight.NewSink()
		if _, err := s.RunMany([]string{"ext10", "ext11"}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s.InsightSink.Len() == 0 {
			t.Fatalf("workers=%d: no cells recorded", workers)
		}
		var ab, db bytes.Buffer
		if err := insight.WriteAlertLog(&ab, s.InsightSink.Sorted()); err != nil {
			t.Fatal(err)
		}
		if err := insight.WriteDumpJSON(&db, insight.Dump{Schema: insight.SchemaVersion, Cells: s.InsightSink.Sorted()}); err != nil {
			t.Fatal(err)
		}
		return ab.Bytes(), db.Bytes()
	}
	serialA, serialD := run(1)
	parA, parD := run(8)
	if !bytes.Equal(serialA, parA) {
		t.Error("alert log differs between serial and 8-worker runs")
	}
	if !bytes.Equal(serialD, parD) {
		t.Error("insight dump differs between serial and 8-worker runs")
	}

	// The artifacts carry the cells they claim to: both fleets of ext10 and
	// every ext11 (shape, policy) cell, in sorted order.
	log := string(serialA)
	for _, cell := range []string{"=== ext10/dram ===", "=== ext10/toss ===",
		"=== ext11/lean/static ===", "=== ext11/matched/full-migration ==="} {
		if !strings.Contains(log, cell) {
			t.Errorf("alert log missing cell header %q", cell)
		}
	}
	if strings.Index(log, "ext10/dram") > strings.Index(log, "ext10/toss") {
		t.Error("alert log cells are not in sorted order")
	}
	d, err := insight.ReadDump(bytes.NewReader(serialD))
	if err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if len(d.Cells) != insightCellCount {
		t.Errorf("dump has %d cells, want %d", len(d.Cells), insightCellCount)
	}
}

// insightCellCount is the expected cell total: 2 ext10 fleets + 12 ext11
// (shape, policy) cells.
const insightCellCount = 14

// TestInsightObserverIdentity proves attaching the alert pipeline changes
// nothing it observes: every table from a suite run with an insight sink
// renders byte-identically to one without. The wiring holds this by
// construction — each cell's feed replays the run's already-recorded
// outcomes strictly after the simulated run finishes — and this test keeps
// it that way.
func TestInsightObserverIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both alert-wired experiments twice")
	}
	render := func(sink *insight.Sink) []string {
		s := NewSuite()
		s.ClusterScale = 0.02
		s.InsightSink = sink
		tables, err := s.RunMany([]string{"ext10", "ext11"})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(tables))
		for _, tb := range tables {
			out = append(out, tb.String())
		}
		return out
	}
	bare := render(nil)
	observed := render(insight.NewSink())
	if len(bare) != len(observed) {
		t.Fatalf("table counts differ: %d vs %d", len(bare), len(observed))
	}
	for i := range bare {
		if bare[i] != observed[i] {
			t.Errorf("table %d renders differently with an insight sink attached:\n--- without ---\n%s\n--- with ---\n%s",
				i, bare[i], observed[i])
		}
	}
}

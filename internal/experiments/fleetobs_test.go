package experiments

import (
	"bytes"
	"strings"
	"testing"

	"toss/internal/par"
	"toss/internal/xray"
)

// TestExt9FleetLogParallelIdentical pins the fleet-observability parallelism
// invariant at the suite level: running the cluster sweep (ext9) with both an
// attribution collector and a fleet decision-trace sink attached must yield a
// byte-identical attribution dump AND a byte-identical folded decision log
// between a serial and an 8-worker run. The sink receives cells in
// nondeterministic completion order; sorted folding is what makes the
// artifact diffable across CI runs.
func TestExt9FleetLogParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full cluster sweep twice")
	}
	run := func(workers int) (xdump, flog []byte) {
		s := NewSuite()
		s.Workers = workers
		s.Iterations = 2
		col := xray.NewCollector()
		s.Core.VM.XRay = col
		s.FleetSink = par.NewSink[string]()
		if _, err := s.Run("ext9"); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		doc := xray.RunDoc{Schema: xray.SchemaVersion}
		doc.Reports = append(doc.Reports, xray.Aggregate("ext9", col.Drain()))
		var xb, fb bytes.Buffer
		if err := xray.WriteJSON(&xb, doc); err != nil {
			t.Fatal(err)
		}
		fb.WriteString(strings.Join(s.FleetSink.Sorted(), ""))
		if s.FleetSink.Len() == 0 {
			t.Fatalf("workers=%d: sweep recorded no fleet cells", workers)
		}
		return xb.Bytes(), fb.Bytes()
	}
	serialX, serialF := run(1)
	parX, parF := run(8)
	if !bytes.Equal(serialX, parX) {
		t.Error("ext9 attribution dump differs between serial and 8-worker runs")
	}
	if !bytes.Equal(serialF, parF) {
		t.Error("ext9 fleet decision log differs between serial and 8-worker runs")
	}

	// The artifacts actually carry the cluster cells they claim to explain:
	// budgets tagged with the cell identity, route events tagged per cell.
	if !strings.Contains(string(serialX), "/cluster/") {
		t.Error("attribution dump has no cluster-tagged budgets")
	}
	if !strings.Contains(string(serialX), "4n/affinity/flash/toss") {
		t.Error("attribution dump missing the headline cell tag")
	}
	log := string(serialF)
	if !strings.Contains(log, `"cell":"ext9/4n/affinity/flash/toss"`) {
		t.Error("decision log missing the headline cell")
	}
	if !strings.Contains(log, `"kind":"route"`) {
		t.Error("decision log has no route events")
	}
}

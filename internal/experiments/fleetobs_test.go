package experiments

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"

	"toss/internal/par"
	"toss/internal/xray"
)

// ext9XRayDigest and ext9FleetLogDigest are the FNV-64a digests of the
// serial run's attribution dump and folded decision log: a refactor of the
// cluster loop or of the fleet renderers must leave both artifacts
// byte-identical.
const (
	ext9XRayDigest     uint64 = 0xa9244e94dec51e1b
	ext9FleetLogDigest uint64 = 0x23305349092338f9
)

// TestExt9FleetLogParallelIdentical pins the fleet-observability parallelism
// invariant at the suite level: running the cluster sweep (ext9) with both an
// attribution collector and a fleet decision-trace sink attached must yield a
// byte-identical attribution dump AND a byte-identical folded decision log
// between a serial and an 8-worker run, and both must match their recorded
// digests. The sink receives cells in nondeterministic completion order;
// sorted folding is what makes the artifact diffable across CI runs.
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
	for _, a := range []struct {
		name string
		body []byte
		want uint64
	}{
		{"attribution dump", serialX, ext9XRayDigest},
		{"fleet decision log", serialF, ext9FleetLogDigest},
	} {
		h := fnv.New64a()
		h.Write(a.body)
		if got := h.Sum64(); got != a.want {
			t.Errorf("ext9 %s digest = %#016x, want %#016x", a.name, got, a.want)
		}
	}
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

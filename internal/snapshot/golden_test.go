package snapshot_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"toss/internal/core"
	"toss/internal/snapshot"
	"toss/internal/workload"
)

// converge runs Steps I-IV for one catalog function, with a three-run
// convergence window and no re-profiling, from trace seed 1.
func converge(tb testing.TB, name string) *core.Controller {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 3
	cfg.ReprofileBudget = 0
	ctl, err := core.Converge(cfg, workload.ByNameMust(name), workload.Levels, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return ctl
}

// TestSnapshotBytesGolden pins the exact bytes the two writers produce for
// three catalog functions' real snapshots: the single-tier image Step I
// captures and the tiered layout plus both tier images Step IV builds. The
// hashes were recorded from the per-page map implementation of Memory, so
// they hold the run-based image to the same file format byte for byte.
func TestSnapshotBytesGolden(t *testing.T) {
	want := map[string]string{
		"compress":       "ecba771bef8a3920642405203a34f8297b8e6051319d8edcd02fd3ed01881f23",
		"pagerank":       "74ab86c5466ecedd0620b1c94290177a194dd38c0f6bf483bafc16b254f599a3",
		"json_load_dump": "92aa14a4f369ccc42811dcb8b43dbfb772049f4e1d9eecaa845a7e69e99b9251",
	}
	for _, name := range []string{"compress", "pagerank", "json_load_dump"} {
		ctl := converge(t, name)
		dir := t.TempDir()
		if err := snapshot.WriteTiered(dir, ctl.Tiered()); err != nil {
			t.Fatal(err)
		}
		single := filepath.Join(dir, "single.toss")
		if err := snapshot.WriteSingle(single, ctl.ProfileData().Single); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		p := snapshot.PathsIn(dir)
		for _, f := range []string{single, p.Layout, p.Fast, p.Slow} {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: snapshot files hash to %s, want %s", name, got, want[name])
		}
	}
}

package obs_test

import (
	"testing"

	"toss/internal/microvm"
	"toss/internal/obs"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/workload"
)

// BenchmarkRecorderDisabled mirrors microvm's BenchmarkRunTracedOverhead for
// the flight recorder: the disabled path (nil microvm.Config.Recorder) must
// cost one pointer comparison per site, so "disabled" must stay within
// noise of a run with no recorder compiled in at all.
func BenchmarkRecorderDisabled(b *testing.B) {
	spec, _ := workload.ByName("pyaes")
	layout, _ := spec.Layout()
	tr, _ := spec.Trace(workload.II, 7)
	cfg := microvm.DefaultConfig()
	boot := microvm.NewBooted(cfg, layout)
	if _, err := boot.Run(tr); err != nil {
		b.Fatal(err)
	}
	snap, _ := boot.SnapshotTraced("pyaes", nil, 0)

	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm := microvm.RestoreLazy(cfg, layout, snap, 1)
			vm.SetRecordTruth(false)
			if _, err := vm.RunTraced(tr, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		mcfg := cfg
		mcfg.Metrics = telemetry.NewMetrics()
		rec := obs.New(obs.Config{Interval: 100 * simtime.Millisecond, Metrics: mcfg.Metrics})
		mcfg.Recorder = rec
		for i := 0; i < b.N; i++ {
			vm := microvm.RestoreLazy(mcfg, layout, snap, 1)
			vm.SetRecordTruth(false)
			if _, err := vm.RunTraced(tr, nil); err != nil {
				b.Fatal(err)
			}
			rec.Advance(10 * simtime.Millisecond)
		}
	})
}

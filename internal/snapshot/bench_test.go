package snapshot_test

import (
	"testing"

	"toss/internal/snapshot"
)

var sumSink uint64

// BenchmarkSnapshotRoundTrip prices Step IV's file layer on pagerank's
// converged tiered snapshot, built as TestSnapshotBytesGolden builds it:
// Checksum over the layout and both tier images, and a WriteTiered plus
// ReadTiered round trip through a temporary directory. Each reports
// nanoseconds per resident page.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	ts := converge(b, "pagerank").Tiered()
	pages := len(ts.FastMem.Pages) + len(ts.SlowMem.Pages)
	perPage := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	}
	b.Run("Checksum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sumSink = ts.Checksum()
		}
		perPage(b)
	})
	b.Run("WriteRead", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := snapshot.WriteTiered(dir, ts); err != nil {
				b.Fatal(err)
			}
			if _, err := snapshot.ReadTiered(dir); err != nil {
				b.Fatal(err)
			}
		}
		perPage(b)
	})
}

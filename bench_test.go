// Package toss holds the repository-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index), plus ablation benches for the design knobs TOSS
// exposes (bin count, merge threshold, cost ratio, convergence window).
//
// Each benchmark regenerates its paper artifact through the experiments
// package and reports the artifact's headline number as a custom metric, so
// `go test -bench . -benchmem` doubles as the reproduction run. Shared
// Suite state caches profiled snapshots, making iterations after the first
// cheap; benchmark wall time therefore measures the harness, while the
// virtual-time results inside the tables are what EXPERIMENTS.md records.
package toss

import (
	"strconv"
	"testing"

	"toss/internal/core"
	"toss/internal/experiments"
	"toss/internal/stats"
	"toss/internal/workload"
)

// benchSuite returns the shared suite sized for benchmarking.
func benchSuite() *experiments.Suite {
	s := experiments.NewSuite()
	s.Iterations = 2
	s.Core.ConvergenceWindow = 8
	return s
}

// runExperiment drives one experiment b.N times over a cached suite.
func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	s := benchSuite()
	var tab *experiments.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err = s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return tab
}

// column extracts a numeric column from a table.
func column(b *testing.B, tab *experiments.Table, col int) []float64 {
	b.Helper()
	var out []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			b.Fatalf("column %d of %s: %v", col, tab.ID, err)
		}
		out = append(out, v)
	}
	return out
}

func BenchmarkTable1Inventory(b *testing.B) {
	tab := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tab.Rows)), "functions")
}

func BenchmarkFig1WorkingSetCharacterization(b *testing.B) {
	tab := runExperiment(b, "fig1")
	b.ReportMetric(stats.Max(column(b, tab, 1)), "uffd-ws-MB-inputIV")
}

func BenchmarkFig2FullSlowTierSlowdown(b *testing.B) {
	tab := runExperiment(b, "fig2")
	var all []float64
	for col := 1; col <= 4; col++ {
		all = append(all, column(b, tab, col)...)
	}
	b.ReportMetric(stats.Mean(all), "mean-slowdown-x")
	b.ReportMetric(stats.Max(all), "max-slowdown-x")
}

func BenchmarkFig3ReapInputMismatch(b *testing.B) {
	tab := runExperiment(b, "fig3")
	b.ReportMetric(stats.Mean(column(b, tab, 2)), "mean-norm")
	b.ReportMetric(stats.Max(column(b, tab, 3)), "max-norm")
}

func BenchmarkFig5MinimumMemoryCost(b *testing.B) {
	tab := runExperiment(b, "fig5")
	b.ReportMetric(stats.Mean(column(b, tab, 1)), "mean-norm-cost")
	b.ReportMetric(stats.Max(column(b, tab, 1)), "max-norm-cost")
}

func BenchmarkTable2SlowTierShare(b *testing.B) {
	s := benchSuite()
	var tab *experiments.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err = s.Run("table2")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var shares []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1][:len(row[1])-1], 64)
		if err != nil {
			b.Fatal(err)
		}
		shares = append(shares, v)
	}
	b.ReportMetric(stats.Mean(shares), "mean-slow-share-pct")
	b.ReportMetric(stats.Min(shares), "min-slow-share-pct")
}

func BenchmarkFig6IncrementalBinOffload(b *testing.B) {
	tab := runExperiment(b, "fig6")
	b.ReportMetric(float64(len(tab.Rows)), "curve-points")
	b.ReportMetric(stats.Max(column(b, tab, 3)), "max-slowdown-x")
}

func BenchmarkFig7SetupTime(b *testing.B) {
	tab := runExperiment(b, "fig7")
	toss := column(b, tab, 2)
	reapMax := column(b, tab, 5)
	var worst float64
	for i := range toss {
		if r := reapMax[i] / toss[i]; r > worst {
			worst = r
		}
	}
	b.ReportMetric(worst, "reap-vs-toss-setup-x")
}

func BenchmarkFig8InvocationTime(b *testing.B) {
	tab := runExperiment(b, "fig8")
	b.ReportMetric(stats.Mean(column(b, tab, 1)), "toss-mean-x")
	b.ReportMetric(stats.Mean(column(b, tab, 3)), "reap-mean-x")
}

func BenchmarkFig9Scalability(b *testing.B) {
	tab := runExperiment(b, "fig9")
	var toss20, worst20 []float64
	for _, row := range tab.Rows {
		if row[1] != "20" {
			continue
		}
		tv, _ := strconv.ParseFloat(row[2], 64)
		wv, _ := strconv.ParseFloat(row[4], 64)
		toss20 = append(toss20, tv)
		worst20 = append(worst20, wv)
	}
	b.ReportMetric(stats.Mean(toss20), "toss-20conc-x")
	b.ReportMetric(stats.Mean(worst20), "reapworst-20conc-x")
}

func BenchmarkSnapshotCostVariance(b *testing.B) {
	tab := runExperiment(b, "sec6c3a")
	b.ReportMetric(stats.Mean(column(b, tab, 4)), "mean-variance-pct")
}

func BenchmarkPlacementGeneralization(b *testing.B) {
	tab := runExperiment(b, "sec6c3b")
	b.ReportMetric(stats.Mean(column(b, tab, 4)), "mean-diff-pct")
}

func BenchmarkExtKeepAlive(b *testing.B) {
	tab := runExperiment(b, "ext1")
	b.ReportMetric(float64(len(tab.Rows)), "configs")
}

func BenchmarkExtProfilingVsArrivalPattern(b *testing.B) {
	tab := runExperiment(b, "ext2")
	b.ReportMetric(stats.Max(column(b, tab, 1)), "max-invocations-to-converge")
}

func BenchmarkExtTierTechnologies(b *testing.B) {
	tab := runExperiment(b, "ext3")
	b.ReportMetric(stats.Min(column(b, tab, 4)), "best-norm-cost")
}

func BenchmarkExtBilling(b *testing.B) {
	tab := runExperiment(b, "ext4")
	b.ReportMetric(float64(len(tab.Rows)), "functions")
}

// --- Ablation benches: the design knobs DESIGN.md calls out. ---

// ablationCost builds one function with a modified config and reports the
// minimum cost and slowdown it achieves.
func ablationCost(b *testing.B, fn string, mutate func(*core.Config)) (cost, slowdown float64) {
	b.Helper()
	spec, ok := workload.ByName(fn)
	if !ok {
		b.Fatalf("%s missing", fn)
	}
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 6
	cfg.ReprofileBudget = 0
	mutate(&cfg)
	ctl, err := core.Converge(cfg, spec, workload.Levels, 1)
	if err != nil {
		b.Fatal(err)
	}
	a := ctl.Analysis()
	return a.MinCost(), a.MinCostSlowdown()
}

func BenchmarkAblationBinCount(b *testing.B) {
	for _, bins := range []int{2, 5, 10, 20} {
		b.Run("bins="+strconv.Itoa(bins), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost, _ = ablationCost(b, "pagerank", func(c *core.Config) { c.Bins = bins })
			}
			b.ReportMetric(cost, "norm-cost")
		})
	}
}

func BenchmarkAblationMergeDelta(b *testing.B) {
	for _, delta := range []int64{1, 100, 10000} {
		b.Run("delta="+strconv.FormatInt(delta, 10), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost, _ = ablationCost(b, "matmul", func(c *core.Config) { c.MergeDelta = delta })
			}
			b.ReportMetric(cost, "norm-cost")
		})
	}
}

func BenchmarkAblationCostRatio(b *testing.B) {
	for _, ratio := range []float64{1.5, 2.5, 4} {
		b.Run("ratio="+strconv.FormatFloat(ratio, 'g', -1, 64), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost, _ = ablationCost(b, "pagerank", func(c *core.Config) {
					c.Cost.CostSlow = c.Cost.CostFast / ratio
				})
			}
			b.ReportMetric(cost, "norm-cost")
		})
	}
}

func BenchmarkAblationSlowdownThreshold(b *testing.B) {
	for _, th := range []float64{0, 0.01, 0.05, 0.2} {
		b.Run("threshold="+strconv.FormatFloat(th, 'g', -1, 64), func(b *testing.B) {
			var cost, sd float64
			for i := 0; i < b.N; i++ {
				cost, sd = ablationCost(b, "pagerank", func(c *core.Config) { c.SlowdownThreshold = th })
			}
			b.ReportMetric(cost, "norm-cost")
			b.ReportMetric((sd-1)*100, "slowdown-pct")
		})
	}
}

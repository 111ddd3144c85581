// Costexplorer explores the memory cost formula (Eq. 1) interactively-ish:
// for one function it sweeps the fast:slow cost ratio and the slowdown
// threshold, showing how the chosen placement, slowdown, and bill move —
// the knobs a cloud vendor would tune when adopting TOSS pricing (§II-D,
// §III-D).
//
// Run with: go run ./examples/costexplorer [-function pagerank]
package main

import (
	"flag"
	"fmt"
	"log"

	"toss/internal/core"
	"toss/internal/costmodel"
	"toss/internal/workload"
)

func main() {
	fn := flag.String("function", "pagerank", "Table I function to explore")
	flag.Parse()

	spec, ok := workload.ByName(*fn)
	if !ok {
		log.Fatalf("unknown function %q (known: %v)", *fn, workload.Names())
	}

	// Profile once; analysis is re-run per configuration below.
	base := core.DefaultConfig()
	base.ConvergenceWindow = 8
	pd := profile(base, spec)

	fmt.Printf("function %s: %d MB guest\n\n", spec.Name, spec.MemBytes>>20)

	fmt.Println("— sweep 1: fast:slow cost ratio (slowdown unconstrained) —")
	fmt.Printf("%8s %12s %12s %12s %12s\n", "ratio", "optimal", "norm cost", "slowdown", "slow share")
	for _, ratio := range []float64{1.5, 2.0, 2.5, 3.5, 5.0} {
		cfg := base
		m, err := costmodel.WithRatio(ratio)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cost = m
		a, err := core.Analyze(cfg, pd)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8.1f %12.3f %12.3f %11.1f%% %11.1f%%\n",
			ratio, m.Optimal(), a.MinCost(), (a.MinCostSlowdown()-1)*100, a.SlowShare()*100)
	}

	fmt.Println("\n— sweep 2: slowdown threshold (ratio 2.5) —")
	fmt.Printf("%10s %12s %12s %12s\n", "threshold", "norm cost", "slowdown", "slow share")
	for _, th := range []float64{0, 0.30, 0.20, 0.10, 0.05, 0.01} {
		cfg := base
		cfg.SlowdownThreshold = th
		a, err := core.Analyze(cfg, pd)
		if err != nil {
			log.Fatal(err)
		}
		label := "none"
		if th > 0 {
			label = fmt.Sprintf("%.0f%%", th*100)
		}
		fmt.Printf("%10s %12.3f %11.1f%% %11.1f%%\n",
			label, a.MinCost(), (a.MinCostSlowdown()-1)*100, a.SlowShare()*100)
	}
	fmt.Println("\nlower ratios shrink the win; tight thresholds trade bill for latency (§V-C)")
}

// profile runs Steps I-IV until the unified pattern converges.
func profile(cfg core.Config, spec *workload.Spec) *core.ProfileData {
	ctl, err := core.Converge(cfg, spec, workload.Levels, 1)
	if err != nil {
		log.Fatal(err)
	}
	return ctl.ProfileData()
}

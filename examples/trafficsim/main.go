// Trafficsim replays a realistic multi-pattern invocation trace (fixed-
// period, bursty, steady, and diurnal functions, as characterized by
// "Serverless in the Wild") through the discrete-event host simulator,
// comparing the three snapshot mechanisms with and without the orthogonal
// keep-alive + pre-warming layer of §VI-A.
//
// Run with: go run ./examples/trafficsim [-horizon 120] [-cores 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/workload"
)

func main() {
	horizonSec := flag.Int("horizon", 120, "trace horizon in virtual seconds")
	cores := flag.Int("cores", 8, "invocation slots on the host")
	flag.Parse()

	horizon := simtime.Duration(*horizonSec) * simtime.Second
	arrivals, err := workload.MixArrivals(workload.MixConfig{
		Horizon: horizon,
		Mix: []workload.FunctionMix{
			{Function: "pyaes", Pattern: workload.Fixed, MeanIAT: 3 * simtime.Second},
			{Function: "json_load_dump", Pattern: workload.Bursty, MeanIAT: 2 * simtime.Second},
			{Function: "compress", Pattern: workload.Steady, MeanIAT: 4 * simtime.Second},
			{Function: "image_processing", Pattern: workload.Diurnal, MeanIAT: 2 * simtime.Second},
		},
		Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}
	functions := []string{"pyaes", "json_load_dump", "compress", "image_processing"}

	fmt.Printf("trace: %d arrivals over %v on %d cores\n", len(arrivals), horizon, *cores)
	for _, st := range summarize(arrivals, functions) {
		fmt.Printf("  %-18s %4d arrivals, mean IAT %v, max gap %v\n",
			st.Function, st.Count, st.MeanIAT.Std().Round(1e6), st.MaxGap.Std().Round(1e6))
	}
	fmt.Println()
	fmt.Printf("%-6s %-22s %7s %7s %10s %12s %12s\n",
		"mech", "config", "cold %", "warm %", "p50 (ms)", "p99 (ms)", "util %")

	for _, mech := range []sched.Mechanism{sched.MechDRAM, sched.MechREAP, sched.MechTOSS} {
		for _, withCache := range []bool{false, true} {
			cfg := sched.DefaultConfig()
			cfg.Cores = *cores
			cfg.Mechanism = mech
			cfg.Core.ConvergenceWindow = 10
			label := "bare"
			if withCache {
				cfg.KeepAliveFastBytes = 256 << 20
				cfg.KeepAliveSlowBytes = 1 << 30
				cfg.KeepAliveTTL = 4 * simtime.Second
				cfg.Prewarm = true
				label = "keep-alive+prewarm"
			}
			sim, err := sched.New(cfg, functions)
			if err != nil {
				log.Fatal(err)
			}
			rep, err := sim.Run(arrivals)
			if err != nil {
				log.Fatal(err)
			}
			warm := 0
			for _, r := range rep.Records {
				if r.Start != sched.ColdStart {
					warm++
				}
			}
			fmt.Printf("%-6s %-22s %6.0f%% %6.0f%% %10.1f %12.1f %11.1f%%\n",
				mech, label,
				rep.ColdFraction()*100,
				float64(warm)/float64(len(rep.Records))*100,
				rep.LatencyPercentile(50).Milliseconds(),
				rep.LatencyPercentile(99).Milliseconds(),
				rep.Utilization(*cores)*100)
		}
	}
	fmt.Println("\nTOSS's near-constant tiered restores make it the least cache-dependent mechanism (§VI-A).")
}

// stats summarizes one function's arrivals in a schedule.
type stats struct {
	Function string
	Count    int
	MeanIAT  simtime.Duration
	MaxGap   simtime.Duration
}

// summarize computes per-function arrival statistics, one row per entry of
// functions, in that order.
func summarize(arrivals []workload.ArrivalSpec, functions []string) []stats {
	perFn := map[string][]simtime.Duration{}
	for _, a := range arrivals {
		perFn[a.Function] = append(perFn[a.Function], a.At)
	}
	out := make([]stats, 0, len(functions))
	for _, fn := range functions {
		times := perFn[fn]
		st := stats{Function: fn, Count: len(times)}
		if len(times) > 1 {
			var sum simtime.Duration
			for i := 1; i < len(times); i++ {
				gap := times[i] - times[i-1]
				sum += gap
				st.MaxGap = max(st.MaxGap, gap)
			}
			st.MeanIAT = sum / simtime.Duration(len(times)-1)
		}
		out = append(out, st)
	}
	return out
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"toss/internal/simtime"
)

// This file is the per-function arrival generator family, for a single
// host. The paper leans on the Azure Functions characterization
// ("Serverless in the Wild", Shahrad et al., ATC'20) for two facts this
// simulator must reproduce: most functions are short-running, and their
// invocation patterns range from fixed-period triggers through bursty and
// diurnal traffic. Each FunctionMix is its own process; the cluster-scale
// generators in arrivals.go instead run one aggregate process and sample a
// function per request. TOSS's profiling phase is insensitive to the
// arrival pattern (§IV-A) while keep-alive caching and pre-warming, the
// orthogonal mechanisms of §VI-A, are all about it.

// Pattern classifies one function's arrival process.
type Pattern int

const (
	// Steady is a Poisson process with a fixed rate.
	Steady Pattern = iota
	// Fixed is a periodic trigger (cron-style) with small phase noise.
	Fixed
	// Bursty alternates exponential on-periods of dense Poisson traffic
	// with long off-periods.
	Bursty
	// Diurnal modulates a Poisson process with a sinusoidal day curve.
	Diurnal
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Steady:
		return "steady"
	case Fixed:
		return "fixed"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// FunctionMix describes one function's traffic in a schedule.
type FunctionMix struct {
	// Function is the Table I function name.
	Function string
	// Pattern is the arrival process.
	Pattern Pattern
	// MeanIAT is the mean inter-arrival time (period for Fixed).
	MeanIAT simtime.Duration
}

// MixConfig describes a whole per-function schedule.
type MixConfig struct {
	// Horizon is the schedule duration in virtual time.
	Horizon simtime.Duration
	// Mix lists the functions and their traffic shapes.
	Mix []FunctionMix
	// Seed drives all randomness.
	Seed int64
}

// Validate checks the configuration.
func (c MixConfig) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("workload: non-positive mix horizon %v", c.Horizon)
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("workload: empty function mix")
	}
	for i, m := range c.Mix {
		if _, ok := ByName(m.Function); !ok {
			return fmt.Errorf("workload: mix[%d]: unknown function %q", i, m.Function)
		}
		if m.MeanIAT <= 0 {
			return fmt.Errorf("workload: mix[%d]: non-positive mean IAT", i)
		}
	}
	return nil
}

// MixArrivals produces the merged, time-ordered schedule: one process per
// function, each on its own rng seeded from the config's.
func MixArrivals(c MixConfig) ([]ArrivalSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var all []ArrivalSpec
	for _, m := range c.Mix {
		fnRng := rand.New(rand.NewSource(rng.Int63()))
		for _, at := range arrivalTimes(m, c.Horizon, fnRng) {
			all = append(all, ArrivalSpec{
				At:       at,
				Function: m.Function,
				Level:    Level(fnRng.Intn(len(Levels))),
				Seed:     fnRng.Int63n(1 << 40),
			})
		}
	}
	// Not stable: the order of equal-time arrivals is whatever sort.Slice
	// makes of this input, which the arrival digest pins.
	sort.Slice(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all, nil
}

// arrivalTimes generates one function's arrival instants.
func arrivalTimes(m FunctionMix, horizon simtime.Duration, rng *rand.Rand) []simtime.Duration {
	switch m.Pattern {
	case Fixed:
		return fixedTimes(m.MeanIAT, horizon, rng)
	case Bursty:
		return burstyTimes(m.MeanIAT, horizon, rng)
	case Diurnal:
		return diurnalTimes(m.MeanIAT, horizon, rng)
	default: // Steady
		return poissonTimes(m.MeanIAT, horizon, rng)
	}
}

// poissonTimes draws a homogeneous Poisson process.
func poissonTimes(meanIAT, horizon simtime.Duration, rng *rand.Rand) []simtime.Duration {
	var out []simtime.Duration
	t := simtime.Duration(0)
	for {
		t += expIAT(meanIAT, rng)
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

// fixedTimes draws a periodic trigger with +-2% phase jitter.
func fixedTimes(period, horizon simtime.Duration, rng *rand.Rand) []simtime.Duration {
	var out []simtime.Duration
	for t := period; t < horizon; t += period {
		jitter := simtime.Duration(float64(period) * 0.02 * (rng.Float64()*2 - 1))
		at := t + jitter
		if at > 0 && at < horizon {
			out = append(out, at)
		}
	}
	return out
}

// burstFactor multiplies the base rate inside a Bursty on-period.
const burstFactor = 10

// burstyTimes alternates on-periods (dense Poisson at burstFactor x the
// base rate) and exponential off-periods sized so the long-run mean IAT is
// approximately meanIAT.
func burstyTimes(meanIAT, horizon simtime.Duration, rng *rand.Rand) []simtime.Duration {
	onIAT := simtime.Duration(float64(meanIAT) / burstFactor)
	onLen := 20 * onIAT // ~20 requests per burst
	offLen := simtime.Duration(float64(meanIAT) * 20 * (1 - 1.0/burstFactor))
	var out []simtime.Duration
	t := simtime.Duration(0)
	for t < horizon {
		burstEnd := t + simtime.Duration(float64(onLen)*(0.5+rng.Float64()))
		for {
			t += expIAT(onIAT, rng)
			if t >= burstEnd || t >= horizon {
				break
			}
			out = append(out, t)
		}
		t += simtime.Duration(float64(offLen) * (0.5 + rng.Float64()))
	}
	return out
}

// diurnalTimes thins a Poisson process with a sinusoidal rate curve whose
// "day" is 1/4 of the horizon (so every schedule sees full cycles). All
// base draws come first, then one thinning draw per base arrival; the
// cluster's ProcDiurnal interleaves them over a half-horizon day instead.
func diurnalTimes(meanIAT, horizon simtime.Duration, rng *rand.Rand) []simtime.Duration {
	day := float64(horizon) / 4
	// Base process at 2x the average rate, thinned by (1+sin)/2.
	base := poissonTimes(meanIAT/2, horizon, rng)
	var out []simtime.Duration
	for _, t := range base {
		phase := 2 * math.Pi * float64(t) / day
		keep := (1 + math.Sin(phase)) / 2
		if rng.Float64() < keep {
			out = append(out, t)
		}
	}
	return out
}

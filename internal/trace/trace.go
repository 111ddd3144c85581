// Package trace generates serverless invocation arrival traces. The paper
// leans on the Azure Functions characterization ("Serverless in the Wild",
// Shahrad et al., ATC'20) for two facts this simulator must reproduce: most
// functions are short-running and their invocation patterns range from
// fixed-period triggers through bursty and diurnal traffic to nearly-idle
// functions invoked at random. TOSS's profiling phase is insensitive to the
// arrival pattern (§IV-A) while keep-alive caching and pre-warming — the
// orthogonal mechanisms of §VI-A — are all about it; this package gives both
// sides something realistic to chew on.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"toss/internal/simtime"
	"toss/internal/workload"
)

// Pattern classifies a function's arrival process.
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
	// Rare is a Poisson process so sparse that every invocation is a cold
	// start for any finite keep-alive budget.
	Rare
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
	case Rare:
		return "rare"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Arrival is one invocation request at a point in virtual time.
type Arrival struct {
	At       simtime.Duration
	Function string
	Level    workload.Level
	Seed     int64
}

// FunctionMix describes one function's traffic in a trace.
type FunctionMix struct {
	// Function is the Table I function name.
	Function string
	// Pattern is the arrival process.
	Pattern Pattern
	// MeanIAT is the mean inter-arrival time (period for Fixed).
	MeanIAT simtime.Duration
}

// Config describes a whole trace.
type Config struct {
	// Horizon is the trace duration in virtual time.
	Horizon simtime.Duration
	// Mix lists the functions and their traffic shapes.
	Mix []FunctionMix
	// Seed drives all randomness.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("trace: non-positive horizon %v", c.Horizon)
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("trace: empty function mix")
	}
	for i, m := range c.Mix {
		if _, ok := workload.ByName(m.Function); !ok {
			return fmt.Errorf("trace: mix[%d]: unknown function %q", i, m.Function)
		}
		if m.MeanIAT <= 0 {
			return fmt.Errorf("trace: mix[%d]: non-positive mean IAT", i)
		}
	}
	return nil
}

// Generate produces the merged, time-ordered arrival trace.
func Generate(c Config) ([]Arrival, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var all []Arrival
	for _, m := range c.Mix {
		fnRng := rand.New(rand.NewSource(rng.Int63()))
		for _, at := range arrivalTimes(m, c.Horizon, fnRng) {
			all = append(all, Arrival{
				At:       at,
				Function: m.Function,
				Level:    workload.Level(fnRng.Intn(4)),
				Seed:     fnRng.Int63n(1 << 40),
			})
		}
	}
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
	case Rare:
		return poissonTimes(m.MeanIAT, horizon, rng)
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
// "day" is 1/4 of the horizon (so every trace sees full cycles).
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

// expIAT draws an exponential inter-arrival time with the given mean,
// clamped to at least one nanosecond so processes always progress.
func expIAT(mean simtime.Duration, rng *rand.Rand) simtime.Duration {
	d := simtime.Duration(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Stats summarizes one function's arrivals in a trace.
type Stats struct {
	Count   int
	MeanIAT simtime.Duration
	MaxGap  simtime.Duration
}

// Summarize computes per-function arrival statistics.
func Summarize(arrivals []Arrival) map[string]Stats {
	perFn := map[string][]simtime.Duration{}
	for _, a := range arrivals {
		perFn[a.Function] = append(perFn[a.Function], a.At)
	}
	out := make(map[string]Stats, len(perFn))
	for fn, times := range perFn {
		st := Stats{Count: len(times)}
		if len(times) > 1 {
			var sum, maxGap simtime.Duration
			for i := 1; i < len(times); i++ {
				gap := times[i] - times[i-1]
				sum += gap
				if gap > maxGap {
					maxGap = gap
				}
			}
			st.MeanIAT = sum / simtime.Duration(len(times)-1)
			st.MaxGap = maxGap
		}
		out[fn] = st
	}
	return out
}

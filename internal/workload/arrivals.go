package workload

import (
	"fmt"
	"math/rand"

	"toss/internal/simtime"
)

// This file is the cluster-scale arrival-process generator family. Unlike
// the per-function mix in mix.go, which shapes traffic for a single host
// (each FunctionMix is its own process), these generators model the
// *aggregate* request stream a fleet front-end sees: one process for the
// whole cluster, with functions sampled per request. The shapes mirror what
// production serverless front-ends route — steady Poisson, diurnal day
// curves, and flash crowds where a single function's traffic multiplies for
// a short episode (the cold-start-heavy case snapshot-affinity routing is
// built for).

// Process classifies a cluster-level aggregate arrival process.
type Process int

const (
	// ProcPoisson is a homogeneous Poisson process at the aggregate rate.
	ProcPoisson Process = iota
	// ProcDiurnal modulates a Poisson process with a sinusoidal day curve
	// whose period is half the horizon (every run sees full cycles).
	ProcDiurnal
	// ProcFlash overlays flash-crowd episodes on a Poisson baseline: for
	// short windows the aggregate rate multiplies and the extra traffic
	// concentrates on one hot function, so a fleet suddenly needs many
	// copies of the same snapshot at once.
	ProcFlash
	// ProcDiurnalFlash overlays the same flash-crowd episodes on a diurnal
	// baseline — the day-scale fleet shape (ext10): a day curve with
	// periodic crowd spikes riding on it.
	ProcDiurnalFlash
)

// String names the process.
func (p Process) String() string {
	switch p {
	case ProcPoisson:
		return "poisson"
	case ProcDiurnal:
		return "diurnal"
	case ProcFlash:
		return "flash"
	case ProcDiurnalFlash:
		return "diurnalflash"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// Processes returns every generator in canonical order.
func Processes() []Process {
	return []Process{ProcPoisson, ProcDiurnal, ProcFlash, ProcDiurnalFlash}
}

// ParseProcess maps a CLI name to a Process.
func ParseProcess(s string) (Process, error) {
	for _, p := range Processes() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown arrival process %q (want poisson, diurnal, flash, or diurnalflash)", s)
}

// ArrivalSpec is one invocation request: which function, which input level,
// and the invocation seed, at a point in virtual time. Both generator
// families produce it.
type ArrivalSpec struct {
	At       simtime.Duration
	Function string
	Level    Level
	Seed     int64
}

// ArrivalsConfig describes one generated schedule.
type ArrivalsConfig struct {
	// Process selects the generator.
	Process Process
	// Horizon is the schedule duration in virtual time.
	Horizon simtime.Duration
	// MeanIAT is the aggregate mean inter-arrival time across all
	// functions (1/MeanIAT is the offered cluster-wide request rate).
	MeanIAT simtime.Duration
	// Functions lists the candidate functions; each arrival samples one
	// uniformly.
	Functions []string
	// Seed drives all randomness. Same config + same seed => byte-identical
	// stream (a golden-file test pins this).
	Seed int64
	// FlashFactor multiplies the aggregate rate inside a flash episode
	// (ProcFlash only; default 8).
	FlashFactor float64
}

// Validate checks the configuration.
func (c ArrivalsConfig) Validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("workload: non-positive arrival horizon %v", c.Horizon)
	}
	if c.MeanIAT <= 0 {
		return fmt.Errorf("workload: non-positive mean IAT %v", c.MeanIAT)
	}
	if len(c.Functions) == 0 {
		return fmt.Errorf("workload: no functions in arrival config")
	}
	for i, fn := range c.Functions {
		if _, ok := ByName(fn); !ok {
			return fmt.Errorf("workload: arrivals: unknown function %q (index %d)", fn, i)
		}
	}
	if c.FlashFactor < 0 {
		return fmt.Errorf("workload: arrivals: negative flash factor %v", c.FlashFactor)
	}
	return nil
}

// sample draws one arrival at time t. fnIdx >= 0 pins the function;
// otherwise it is sampled uniformly.
func (c ArrivalsConfig) sample(t simtime.Duration, fnIdx int, rng *rand.Rand) ArrivalSpec {
	if fnIdx < 0 {
		fnIdx = rng.Intn(len(c.Functions))
	}
	return ArrivalSpec{
		At:       t,
		Function: c.Functions[fnIdx],
		Level:    Level(rng.Intn(len(Levels))),
		Seed:     rng.Int63n(1 << 40),
	}
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

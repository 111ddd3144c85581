package main

import (
	"math"
	"testing"

	"toss/internal/experiments"
)

// TestCheckSuiteUsageErrors pins the one-line diagnostic of each suite
// setting no run can mean; tossctl prints it and exits 2 before any work.
func TestCheckSuiteUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*experiments.Suite)
		want string
	}{
		{"-window 0", func(s *experiments.Suite) { s.Core.ConvergenceWindow = 0 }, "core: ConvergenceWindow 0 < 1"},
		{"-threshold -1", func(s *experiments.Suite) { s.Core.SlowdownThreshold = -1 }, "core: SlowdownThreshold -1 is negative or NaN"},
		{"-threshold NaN", func(s *experiments.Suite) { s.Core.SlowdownThreshold = math.NaN() }, "core: SlowdownThreshold NaN is negative or NaN"},
		{"-cluster-scale NaN", func(s *experiments.Suite) { s.ClusterScale = math.NaN() }, "-cluster-scale must be a finite positive number (got NaN)"},
		{"-cluster-scale -1", func(s *experiments.Suite) { s.ClusterScale = -1 }, "-cluster-scale must be a finite positive number (got -1)"},
		{"-cluster-scale 0", func(s *experiments.Suite) { s.ClusterScale = 0 }, "-cluster-scale must be a finite positive number (got 0)"},
		{"-cluster-scale +Inf", func(s *experiments.Suite) { s.ClusterScale = math.Inf(1) }, "-cluster-scale must be a finite positive number (got +Inf)"},
		{"-cluster-scale 1e-15", func(s *experiments.Suite) { s.ClusterScale = 1e-15 },
			"-cluster-scale 1e-15: ext10's 24h0m0s day scales to 0.0864 ns, not a positive duration that fits in int64"},
		{"-cluster-scale 1e300", func(s *experiments.Suite) { s.ClusterScale = 1e300 },
			"-cluster-scale 1e+300: ext10's 24h0m0s day scales to +Inf ns, not a positive duration that fits in int64"},
		{"-cluster-scale 2e5", func(s *experiments.Suite) { s.ClusterScale = 2e5 },
			"-cluster-scale 200000: ext10's 24h0m0s day scales to 1.728e+19 ns, not a positive duration that fits in int64"},
	} {
		s := experiments.NewSuite()
		s.ClusterScale = 1 // the flag's default
		c.set(s)
		if err := checkSuite(s); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
	for _, scale := range []float64{0.02, 0.25} {
		s := experiments.NewSuite()
		s.ClusterScale = scale
		if err := checkSuite(s); err != nil {
			t.Errorf("CI smoke scale %v rejected: %v", scale, err)
		}
	}
}

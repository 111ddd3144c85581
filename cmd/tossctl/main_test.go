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
	} {
		s := experiments.NewSuite()
		s.ClusterScale = 1 // the flag's default
		c.set(s)
		if err := checkSuite(s); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
	s := experiments.NewSuite()
	s.ClusterScale = 0.02
	if err := checkSuite(s); err != nil {
		t.Errorf("CI smoke settings rejected: %v", err)
	}
}

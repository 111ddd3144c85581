package workload

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toss/internal/par"
	"toss/internal/simtime"
)

var updateArrivals = flag.Bool("update-arrivals", false, "rewrite the arrivals golden file")

// arrivalsFixtures is one config per generator, shared by every test below
// so the golden file pins all four processes at once. New fixtures append at
// the end, keeping earlier golden-file sections byte-stable.
func arrivalsFixtures() []ArrivalsConfig {
	fns := []string{"float_operation", "pyaes", "compress", "matmul"}
	return []ArrivalsConfig{
		{Process: ProcPoisson, Horizon: 120 * simtime.Second, MeanIAT: 400 * simtime.Millisecond, Functions: fns, Seed: 7},
		{Process: ProcDiurnal, Horizon: 120 * simtime.Second, MeanIAT: 400 * simtime.Millisecond, Functions: fns, Seed: 7},
		{Process: ProcFlash, Horizon: 120 * simtime.Second, MeanIAT: 400 * simtime.Millisecond, Functions: fns, Seed: 7},
		{Process: ProcDiurnalFlash, Horizon: 120 * simtime.Second, MeanIAT: 400 * simtime.Millisecond, Functions: fns, Seed: 7},
	}
}

// renderArrivals serializes a schedule to the canonical text form the
// golden file stores: one line per arrival, every field explicit.
func renderArrivals(c ArrivalsConfig, specs []ArrivalSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed=%d n=%d\n", c.Process, c.Seed, len(specs))
	for _, s := range specs {
		fmt.Fprintf(&b, "%d %s %d %d\n", int64(s.At), s.Function, int(s.Level), s.Seed)
	}
	return b.String()
}

// TestArrivalsGolden pins the exact byte output of every generator's
// stream for a fixed seed. A diff here means the generators' determinism contract broke:
// refresh with `go test ./internal/workload -update-arrivals` only if the
// change is intended, and expect ext9 output to shift with it.
func TestArrivalsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range arrivalsFixtures() {
		b.WriteString(renderArrivals(c, streamed(t, c)))
	}
	got := []byte(b.String())

	path := filepath.Join("testdata", "arrivals_golden.txt")
	if *updateArrivals {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/workload -update-arrivals` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("arrival schedules drifted from golden file (run with -update-arrivals if intended); got %d bytes, want %d", len(got), len(want))
	}
}

// TestArrivalsRepeatable regenerates each stream several times and under
// a parallel worker pool, asserting byte-identical output every time —
// the property the cluster layer relies on for serial-vs-parallel
// determinism of ext9.
func TestArrivalsRepeatable(t *testing.T) {
	for _, c := range arrivalsFixtures() {
		specs := streamed(t, c)
		base := renderArrivals(c, specs)
		if len(specs) == 0 {
			t.Fatalf("%s: empty schedule", c.Process)
		}

		for run := 0; run < 3; run++ {
			if renderArrivals(c, streamed(t, c)) != base {
				t.Fatalf("%s: run %d differs from first generation", c.Process, run)
			}
		}

		// Generate concurrently on a 4-worker pool: every worker must see
		// the same bytes as the serial run.
		pool := par.New(4)
		rendered, err := par.Map(pool, make([]struct{}, 8), func(i int, _ struct{}) (string, error) {
			st, err := NewStream(c)
			if err != nil {
				return "", err
			}
			var specs []ArrivalSpec
			for a, ok := st.Next(); ok; a, ok = st.Next() {
				specs = append(specs, a)
			}
			return renderArrivals(c, specs), nil
		})
		if err != nil {
			t.Fatalf("%s: parallel generation: %v", c.Process, err)
		}
		for i, r := range rendered {
			if r != base {
				t.Fatalf("%s: parallel worker %d produced different bytes", c.Process, i)
			}
		}
	}
}

// TestArrivalsOrdering asserts the streams are time-sorted and inside the
// horizon, and that flash schedules actually concentrate extra traffic
// (more arrivals than the Poisson baseline at the same mean IAT).
func TestArrivalsOrdering(t *testing.T) {
	counts := map[Process]int{}
	for _, c := range arrivalsFixtures() {
		specs := streamed(t, c)
		counts[c.Process] = len(specs)
		for i, s := range specs {
			if s.At <= 0 || s.At >= c.Horizon {
				t.Fatalf("%s: arrival %d at %v outside (0, %v)", c.Process, i, s.At, c.Horizon)
			}
			if i > 0 && s.At < specs[i-1].At {
				t.Fatalf("%s: arrivals out of order at index %d", c.Process, i)
			}
			if s.Level < I || s.Level > IV {
				t.Fatalf("%s: arrival %d has invalid level %d", c.Process, i, s.Level)
			}
			found := false
			for _, fn := range c.Functions {
				if s.Function == fn {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: arrival %d names unlisted function %q", c.Process, i, s.Function)
			}
		}
	}
	if counts[ProcFlash] <= counts[ProcPoisson] {
		t.Fatalf("flash schedule (%d arrivals) not denser than poisson baseline (%d)", counts[ProcFlash], counts[ProcPoisson])
	}
}

// TestArrivalsValidate exercises every rejection path.
func TestArrivalsValidate(t *testing.T) {
	good := arrivalsFixtures()[0]
	cases := []struct {
		name   string
		mutate func(*ArrivalsConfig)
	}{
		{"zero horizon", func(c *ArrivalsConfig) { c.Horizon = 0 }},
		{"zero mean IAT", func(c *ArrivalsConfig) { c.MeanIAT = 0 }},
		{"no functions", func(c *ArrivalsConfig) { c.Functions = nil }},
		{"unknown function", func(c *ArrivalsConfig) { c.Functions = []string{"nope"} }},
		{"negative flash factor", func(c *ArrivalsConfig) { c.FlashFactor = -1 }},
	}
	for _, tc := range cases {
		c := good
		tc.mutate(&c)
		if _, err := NewStream(c); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := ParseProcess("nope"); err == nil {
		t.Error("ParseProcess accepted unknown name")
	}
	for _, p := range Processes() {
		got, err := ParseProcess(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProcess(%q) = %v, %v", p.String(), got, err)
		}
	}
}

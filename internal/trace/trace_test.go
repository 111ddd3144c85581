package trace

import (
	"testing"
	"testing/quick"

	"toss/internal/simtime"
)

func steadyMix(fn string, iat simtime.Duration) FunctionMix {
	return FunctionMix{Function: fn, Pattern: Steady, MeanIAT: iat}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Steady: "steady", Fixed: "fixed", Bursty: "bursty", Diurnal: "diurnal", Rare: "rare",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern String empty")
	}
}

func TestValidate(t *testing.T) {
	good := Config{
		Horizon: simtime.Second,
		Mix:     []FunctionMix{steadyMix("pyaes", simtime.Millisecond)},
		Seed:    1,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Horizon: 0, Mix: good.Mix},
		{Horizon: simtime.Second},
		{Horizon: simtime.Second, Mix: []FunctionMix{steadyMix("nope", simtime.Millisecond)}},
		{Horizon: simtime.Second, Mix: []FunctionMix{steadyMix("pyaes", 0)}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := Config{
		Horizon: 10 * simtime.Second,
		Mix: []FunctionMix{
			steadyMix("pyaes", 100*simtime.Millisecond),
			{Function: "compress", Pattern: Bursty, MeanIAT: 200 * simtime.Millisecond},
		},
		Seed: 7,
	}
	a, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	c.Seed = 8
	d, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) == len(a) {
		same := true
		for i := range a {
			if a[i] != d[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateOrderedWithinHorizon(t *testing.T) {
	c := Config{
		Horizon: 5 * simtime.Second,
		Mix: []FunctionMix{
			steadyMix("pyaes", 50*simtime.Millisecond),
			{Function: "matmul", Pattern: Diurnal, MeanIAT: 80 * simtime.Millisecond},
			{Function: "compress", Pattern: Fixed, MeanIAT: 250 * simtime.Millisecond},
		},
		Seed: 3,
	}
	arrivals, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) == 0 {
		t.Fatal("empty trace")
	}
	for i, a := range arrivals {
		if a.At <= 0 || a.At >= c.Horizon {
			t.Fatalf("arrival %d at %v outside (0, %v)", i, a.At, c.Horizon)
		}
		if i > 0 && a.At < arrivals[i-1].At {
			t.Fatalf("arrivals unsorted at %d", i)
		}
		if !a.Level.Valid() {
			t.Fatalf("invalid level %v", a.Level)
		}
	}
}

func TestSteadyRateApproximatelyCorrect(t *testing.T) {
	c := Config{
		Horizon: 100 * simtime.Second,
		Mix:     []FunctionMix{steadyMix("pyaes", 100*simtime.Millisecond)},
		Seed:    5,
	}
	arrivals, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~1000 arrivals; Poisson noise makes +-15% generous.
	if n := len(arrivals); n < 850 || n > 1150 {
		t.Errorf("steady trace has %d arrivals, want ~1000", n)
	}
}

func TestFixedPatternPeriodicity(t *testing.T) {
	c := Config{
		Horizon: 10 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Fixed, MeanIAT: simtime.Second}},
		Seed:    2,
	}
	arrivals, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 9 {
		t.Fatalf("fixed 1s trigger over 10s produced %d arrivals, want 9", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i].At - arrivals[i-1].At
		if gap < 900*simtime.Millisecond || gap > 1100*simtime.Millisecond {
			t.Errorf("fixed gap %v outside 1s +-10%%", gap)
		}
	}
}

func TestBurstyHasBurstsAndGaps(t *testing.T) {
	c := Config{
		Horizon: 200 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Bursty, MeanIAT: simtime.Second}},
		Seed:    4,
	}
	arrivals, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 20 {
		t.Fatalf("bursty trace too sparse: %d", len(arrivals))
	}
	st := Summarize(arrivals)["pyaes"]
	// Bursts: the max gap dwarfs the mean IAT.
	if float64(st.MaxGap) < 5*float64(st.MeanIAT) {
		t.Errorf("bursty trace lacks gaps: maxGap %v vs meanIAT %v", st.MaxGap, st.MeanIAT)
	}
}

func TestDiurnalModulation(t *testing.T) {
	c := Config{
		Horizon: 400 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Diurnal, MeanIAT: 100 * simtime.Millisecond}},
		Seed:    6,
	}
	arrivals, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Split the horizon into 8 half-day slices; peak vs trough load must
	// differ markedly.
	counts := make([]int, 8)
	slice := c.Horizon / 8
	for _, a := range arrivals {
		idx := int(a.At / slice)
		if idx > 7 {
			idx = 7
		}
		counts[idx]++
	}
	min, max := counts[0], counts[0]
	for _, n := range counts[1:] {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max < 2*min {
		t.Errorf("diurnal modulation too flat: slice counts %v", counts)
	}
}

func TestRarePatternIsSparse(t *testing.T) {
	arrivals, err := Generate(Config{
		Horizon: 100 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Rare, MeanIAT: 30 * simtime.Second}},
		Seed:    12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~3.3 expected arrivals; Poisson noise keeps it under 12 with margin.
	if len(arrivals) > 12 {
		t.Errorf("rare pattern produced %d arrivals, want few", len(arrivals))
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if got := Summarize(nil); len(got) != 0 {
		t.Errorf("Summarize(nil) = %v", got)
	}
	st := Summarize([]Arrival{{At: 5, Function: "x"}})["x"]
	if st.Count != 1 || st.MeanIAT != 0 || st.MaxGap != 0 {
		t.Errorf("single-arrival stats = %+v", st)
	}
}

// Property: arrivals are always sorted, in-horizon, and per-function counts
// match the per-function sub-traces.
func TestGenerateInvariantProperty(t *testing.T) {
	f := func(seed int64, patRaw uint8) bool {
		c := Config{
			Horizon: 20 * simtime.Second,
			Mix: []FunctionMix{
				{Function: "pyaes", Pattern: Pattern(patRaw % 5), MeanIAT: 300 * simtime.Millisecond},
				{Function: "compress", Pattern: Steady, MeanIAT: 500 * simtime.Millisecond},
			},
			Seed: seed,
		}
		arrivals, err := Generate(c)
		if err != nil {
			return false
		}
		total := 0
		for _, st := range Summarize(arrivals) {
			total += st.Count
		}
		for i, a := range arrivals {
			if a.At <= 0 || a.At >= c.Horizon {
				return false
			}
			if i > 0 && a.At < arrivals[i-1].At {
				return false
			}
		}
		return total == len(arrivals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

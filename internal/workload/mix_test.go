package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"

	"toss/internal/simtime"
)

func steadyMix(fn string, iat simtime.Duration) FunctionMix {
	return FunctionMix{Function: fn, Pattern: Steady, MeanIAT: iat}
}

// arrivalDigestGolden pins every arrival the per-function mix generator
// produces for the configs below. It was recorded before the generator
// moved into this package, so folding or refactoring it cannot move a
// single draw unnoticed.
const arrivalDigestGolden uint64 = 0x16d854a8496e1b58

// digestConfigs are the mixes the experiments and examples run: ext1's
// three-function mix, ext2's four single-function configs, and
// examples/trafficsim's mix at its default and a short horizon.
func digestConfigs() []MixConfig {
	var cs []MixConfig
	for _, seed := range []int64{1, 2, 4242} {
		cs = append(cs, MixConfig{
			Horizon: 120 * simtime.Second,
			Mix: []FunctionMix{
				{Function: "pyaes", Pattern: Fixed, MeanIAT: 3 * simtime.Second},
				{Function: "json_load_dump", Pattern: Bursty, MeanIAT: 2 * simtime.Second},
				{Function: "compress", Pattern: Steady, MeanIAT: 4 * simtime.Second},
			},
			Seed: seed,
		})
		for _, pat := range []Pattern{Steady, Fixed, Bursty, Diurnal} {
			cs = append(cs, MixConfig{
				Horizon: 3000 * simtime.Second,
				Mix: []FunctionMix{{
					Function: "json_load_dump", Pattern: pat, MeanIAT: 2 * simtime.Second,
				}},
				Seed: seed,
			})
		}
	}
	for _, horizon := range []simtime.Duration{30 * simtime.Second, 120 * simtime.Second} {
		cs = append(cs, MixConfig{
			Horizon: horizon,
			Mix: []FunctionMix{
				{Function: "pyaes", Pattern: Fixed, MeanIAT: 3 * simtime.Second},
				{Function: "json_load_dump", Pattern: Bursty, MeanIAT: 2 * simtime.Second},
				{Function: "compress", Pattern: Steady, MeanIAT: 4 * simtime.Second},
				{Function: "image_processing", Pattern: Diurnal, MeanIAT: 2 * simtime.Second},
			},
			Seed: 17,
		})
	}
	return cs
}

// TestArrivalDigestGolden hashes every field of every arrival of every
// config with FNV-64a, prefixing each schedule with its length and each
// function name with its byte count so neither can run into the next.
func TestArrivalDigestGolden(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range digestConfigs() {
		arrivals, err := MixArrivals(c)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(arrivals)))
		for _, a := range arrivals {
			put(uint64(a.At))
			put(uint64(len(a.Function)))
			h.Write([]byte(a.Function))
			put(uint64(a.Level))
			put(uint64(a.Seed))
		}
	}
	if got := h.Sum64(); got != arrivalDigestGolden {
		t.Errorf("arrival digest = %#016x, want %#016x", got, arrivalDigestGolden)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Steady: "steady", Fixed: "fixed", Bursty: "bursty", Diurnal: "diurnal",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Pattern(9).String() == "" {
		t.Error("unknown pattern String empty")
	}
}

func TestMixValidate(t *testing.T) {
	good := MixConfig{
		Horizon: simtime.Second,
		Mix:     []FunctionMix{steadyMix("pyaes", simtime.Millisecond)},
		Seed:    1,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MixConfig{
		{Horizon: 0, Mix: good.Mix},
		{Horizon: simtime.Second},
		{Horizon: simtime.Second, Mix: []FunctionMix{steadyMix("nope", simtime.Millisecond)}},
		{Horizon: simtime.Second, Mix: []FunctionMix{steadyMix("pyaes", 0)}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := MixArrivals(c); err == nil {
			t.Errorf("bad config %d generated", i)
		}
	}
}

func TestMixArrivalsDeterministic(t *testing.T) {
	c := MixConfig{
		Horizon: 10 * simtime.Second,
		Mix: []FunctionMix{
			steadyMix("pyaes", 100*simtime.Millisecond),
			{Function: "compress", Pattern: Bursty, MeanIAT: 200 * simtime.Millisecond},
		},
		Seed: 7,
	}
	a, err := MixArrivals(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixArrivals(c)
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
	d, err := MixArrivals(c)
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
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestMixArrivalsOrderedWithinHorizon(t *testing.T) {
	c := MixConfig{
		Horizon: 5 * simtime.Second,
		Mix: []FunctionMix{
			steadyMix("pyaes", 50*simtime.Millisecond),
			{Function: "matmul", Pattern: Diurnal, MeanIAT: 80 * simtime.Millisecond},
			{Function: "compress", Pattern: Fixed, MeanIAT: 250 * simtime.Millisecond},
		},
		Seed: 3,
	}
	arrivals, err := MixArrivals(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) == 0 {
		t.Fatal("empty schedule")
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
	c := MixConfig{
		Horizon: 100 * simtime.Second,
		Mix:     []FunctionMix{steadyMix("pyaes", 100*simtime.Millisecond)},
		Seed:    5,
	}
	arrivals, err := MixArrivals(c)
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~1000 arrivals; Poisson noise makes +-15% generous.
	if n := len(arrivals); n < 850 || n > 1150 {
		t.Errorf("steady schedule has %d arrivals, want ~1000", n)
	}
}

func TestFixedPatternPeriodicity(t *testing.T) {
	c := MixConfig{
		Horizon: 10 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Fixed, MeanIAT: simtime.Second}},
		Seed:    2,
	}
	arrivals, err := MixArrivals(c)
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
	c := MixConfig{
		Horizon: 200 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Bursty, MeanIAT: simtime.Second}},
		Seed:    4,
	}
	arrivals, err := MixArrivals(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 20 {
		t.Fatalf("bursty schedule too sparse: %d", len(arrivals))
	}
	var maxGap simtime.Duration
	for i := 1; i < len(arrivals); i++ {
		maxGap = max(maxGap, arrivals[i].At-arrivals[i-1].At)
	}
	meanIAT := (arrivals[len(arrivals)-1].At - arrivals[0].At) / simtime.Duration(len(arrivals)-1)
	// Bursts: the max gap dwarfs the mean IAT.
	if float64(maxGap) < 5*float64(meanIAT) {
		t.Errorf("bursty schedule lacks gaps: maxGap %v vs meanIAT %v", maxGap, meanIAT)
	}
}

func TestDiurnalModulation(t *testing.T) {
	c := MixConfig{
		Horizon: 400 * simtime.Second,
		Mix:     []FunctionMix{{Function: "pyaes", Pattern: Diurnal, MeanIAT: 100 * simtime.Millisecond}},
		Seed:    6,
	}
	arrivals, err := MixArrivals(c)
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

// Property: arrivals are always sorted and in-horizon, and each function
// gets exactly the arrivals its own process drew.
func TestMixArrivalsInvariantProperty(t *testing.T) {
	f := func(seed int64, patRaw uint8) bool {
		c := MixConfig{
			Horizon: 20 * simtime.Second,
			Mix: []FunctionMix{
				{Function: "pyaes", Pattern: Pattern(patRaw % 4), MeanIAT: 300 * simtime.Millisecond},
				{Function: "compress", Pattern: Steady, MeanIAT: 500 * simtime.Millisecond},
			},
			Seed: seed,
		}
		arrivals, err := MixArrivals(c)
		if err != nil {
			return false
		}
		perFn := map[string]int{}
		for i, a := range arrivals {
			if a.At <= 0 || a.At >= c.Horizon {
				return false
			}
			if i > 0 && a.At < arrivals[i-1].At {
				return false
			}
			perFn[a.Function]++
		}
		return perFn["pyaes"]+perFn["compress"] == len(arrivals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// streamDraws covers three full register periods, so every comparison
// crosses both the draw-273 register build and the 607-draw wrap.
const streamDraws = 3 * rngLen

// specialSeeds are the seeds at math/rand's normalisation edges, plus the
// workload builder's seed for trace seed 1.
var specialSeeds = []int64{
	0, 1, -1,
	modulus, -modulus, modulus - 1, modulus + 1, -(modulus - 1), -(modulus + 1),
	2 * modulus, -2 * modulus,
	zeroSeed, -zeroSeed,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	1 ^ 0x7055_0001,
}

// compare draws n values from New(seed) and from math/rand seeded alike,
// rotating through every *rand.Rand method the simulator calls, and
// reports the first draw where the two streams differ.
func compare(t testing.TB, seed int64, n int) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Int63n(17), want.Int63n(17)
		case 4:
			// Rejects about half its draws, so the two streams must
			// also agree on how many words each call consumes.
			n := int64(1<<62 + 1)
			g, w = got.Int63n(n), want.Int63n(n)
		case 5:
			g, w = got.Intn(10), want.Intn(10)
		case 6:
			// Int31n's rejection path, also about half its draws.
			g, w = got.Intn(1<<30+1), want.Intn(1<<30+1)
		}
		if g != w {
			t.Fatalf("seed %d: call %d: got %v, want %v", seed, i, g, w)
		}
	}
}

// TestMatchesMathRand compares the streams of over 2,000 seeds: the
// normalisation edges, seeds on both sides of multiples of 2³¹−1, and
// seeds spread over the whole int64 range.
func TestMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), specialSeeds...)
	for k := int64(-8); k <= 8; k++ {
		seeds = append(seeds, k*modulus-1, k*modulus+1)
	}
	gen := rand.New(rand.NewSource(20251017))
	for len(seeds) < 2014 {
		seeds = append(seeds, int64(gen.Uint64()), gen.Int63n(1<<40), -gen.Int63n(modulus))
	}
	for _, seed := range seeds {
		compare(t, seed, streamDraws)
	}
}

// TestReseed checks that Seed restarts the stream, including after the
// register was built.
func TestReseed(t *testing.T) {
	got, want := New(5), rand.New(rand.NewSource(5))
	for i := 0; i < rngLen; i++ {
		got.Uint64()
	}
	for _, seed := range []int64{7, 0, -3} {
		got.Seed(seed)
		want.Seed(seed)
		for i := 0; i < streamDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed %d: draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// floatDraws is how many Float64s the Stream comparisons draw: four full
// register periods, so each one wraps the 607-word register.
const floatDraws = 4 * rngLen

// compareStream reseeds s and compares its first n Float64s with those of
// math/rand seeded alike.
func compareStream(t testing.TB, s *Stream, seed int64, n int) {
	t.Helper()
	s.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if g, w := s.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 %d: got %v, want %v", seed, i, g, w)
		}
	}
}

// TestStreamMatchesMathRand compares a Stream's Float64s with math/rand's
// over the normalisation edges, seeds on both sides of multiples of 2³¹−1
// and seeds spread over the int64 range. One Stream serves every seed, so
// Seed must also restart a stream that has wrapped its register.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), specialSeeds...)
	for k := int64(-8); k <= 8; k++ {
		seeds = append(seeds, k*modulus-1, k*modulus, k*modulus+1)
	}
	gen := rand.New(rand.NewSource(20261019))
	for len(seeds) < 300 {
		seeds = append(seeds, int64(gen.Uint64()), gen.Int63n(1<<40), -gen.Int63n(modulus))
	}
	var s Stream
	for _, seed := range seeds {
		compareStream(t, &s, seed, floatDraws)
	}
}

// registerSource is a rand.Source over a register, so that rand.Rand's own
// Float64 can run from a constructed register state.
type registerSource struct{ r *register }

func (s registerSource) Int63() int64 { return int64(s.r.next() & rngMask) }
func (s registerSource) Seed(int64)   { panic("registerSource: Seed") }

// TestStreamFloat64Retry constructs a register whose next word is 2⁶³−1,
// whose quotient by 2⁶³ rounds to 1, and checks that Float64 then draws
// again, consuming a second word, exactly as rand.Rand.Float64 does.
func TestStreamFloat64Retry(t *testing.T) {
	if float64(int64(1<<63-1))/(1<<63) != 1 {
		t.Fatal("2⁶³−1 does not round to 2⁶³")
	}
	var s Stream
	s.Seed(7)
	// After Seed, the first draw writes word 333 as the sum of words 333
	// and 606.
	feed, tap := feedAt(0), tapAt(0)
	s.r.vec[feed] = 1<<63 - 1 - s.r.vec[tap]
	ref := s.r
	want := rand.New(registerSource{&ref})
	for i := 0; i < 10; i++ {
		if g, w := s.Float64(), want.Float64(); g != w || g == 1 {
			t.Fatalf("Float64 %d: got %v, want %v (< 1)", i, g, w)
		}
		if i == 0 && s.r.tap != tapAt(1) {
			t.Fatalf("first Float64 left the tap at %d, want %d: it drew %d words, want 2",
				s.r.tap, tapAt(1), tapAt(-1)-s.r.tap)
		}
	}
}

// skipLengths are the Skip lengths the comparisons interleave with Float64:
// none, one, either side of the first draw that reads a written-back word,
// a full register period, and many periods.
var skipLengths = []int{0, 1, rngTap - 1, rngTap, rngLen, 10000}

// compareSkip reseeds s and interleaves Skips of every skipLengths length,
// starting at index rot, with Float64s, against math/rand seeded alike:
// each Skip(n) must leave s where n Float64s leave math/rand.
func compareSkip(t testing.TB, s *Stream, seed int64, rot int) {
	t.Helper()
	s.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i := range skipLengths {
		n := skipLengths[(i+rot)%len(skipLengths)]
		s.Skip(n)
		for k := 0; k < n; k++ {
			want.Float64()
		}
		for k := 0; k < 3; k++ {
			if g, w := s.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %d after Skip(%d): got %v, want %v", seed, k, n, g, w)
			}
		}
	}
}

// TestStreamSkipMatchesMathRand runs compareSkip from every rotation of the
// lengths over the normalisation edges and seeds spread over int64, so
// each length starts at several register phases.
func TestStreamSkipMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), specialSeeds...)
	gen := rand.New(rand.NewSource(20261020))
	for len(seeds) < 40 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var s Stream
	for _, seed := range seeds {
		for rot := range skipLengths {
			compareSkip(t, &s, seed, rot)
		}
	}
}

// TestStreamSkipRetry forces one word of a Skip to a chosen value, at a
// wrap of either register index and inside a run between wraps, and
// checks that Skip(10) leaves the register exactly where ten of
// rand.Rand's Float64s over the same register do: one word further when
// the forced word is retryAt or above (its quotient rounds to 1), and on
// the words below it none. It also pins retryAt and MaxFloat64 to the
// float64 conversion.
func TestStreamSkipRetry(t *testing.T) {
	if f := float64(int64(retryAt)) / (1 << 63); f != 1 {
		t.Fatalf("retryAt's quotient is %v, want 1", f)
	}
	if f := float64(int64(retryAt-1)) / (1 << 63); f != MaxFloat64 {
		t.Fatalf("retryAt-1's quotient is %v, want MaxFloat64 %v", f, MaxFloat64)
	}
	forced := []uint64{retryAt - 1, retryAt, 1<<63 - 1, 1<<64 - 1, 1 << 63}
	// pre draws come before the Skip, and the forced word is draw pre+off:
	// draws 0 and 607 wrap the tap index, draw 334 the feed index, and draw
	// 5 falls between wraps.
	for _, at := range [][2]int{{0, 0}, {0, 5}, {330, 4}, {600, 7}} {
		pre, off := at[0], at[1]
		for _, w := range forced {
			var s Stream
			s.Seed(7)
			for k := 0; k < pre; k++ {
				s.r.next()
			}
			ahead := s.r
			for k := 0; k < off; k++ {
				ahead.next()
			}
			feed, tap := (ahead.feed+rngLen-1)%rngLen, (ahead.tap+rngLen-1)%rngLen
			s.r.vec[feed] = w - ahead.vec[tap]
			ref, before := s.r, s.r.feed
			want := rand.New(registerSource{&ref})
			s.Skip(10)
			for k := 0; k < 10; k++ {
				want.Float64()
			}
			if s.r != ref {
				t.Fatalf("draw %d forced to %#x: Skip(10) left feed %d, ten Float64s feed %d", pre+off, w, s.r.feed, ref.feed)
			}
			n := 10
			if w&rngMask >= retryAt {
				n++
			}
			if drawn := (before + rngLen - s.r.feed) % rngLen; drawn != n {
				t.Fatalf("draw %d forced to %#x: Skip(10) drew %d words, want %d", pre+off, w, drawn, n)
			}
		}
	}
}

func FuzzLazyRand(f *testing.F) {
	for _, seed := range specialSeeds {
		f.Add(seed, uint16(streamDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		compare(t, seed, int(n))
		var s Stream
		compareStream(t, &s, seed, int(n))
		compareSkip(t, &s, seed, int(n))
	})
}

// sink and fsink keep the benchmarks' draws live.
var (
	sink  uint64
	fsink float64
)

// Seeding plus ten draws is what one per-trace rng costs.
func BenchmarkSeedAndDraw10Lazy(b *testing.B) {
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		r := New(int64(i))
		for j := 0; j < 10; j++ {
			sum += r.Uint64()
		}
	}
	sink = sum
}

func BenchmarkSeedAndDraw10MathRand(b *testing.B) {
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 10; j++ {
			sum += r.Uint64()
		}
	}
	sink = sum
}

// Steady-state draws, after the register is built.
func BenchmarkDrawLazy(b *testing.B) {
	r := New(1)
	for i := 0; i < rngLen; i++ {
		r.Uint64()
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += r.Uint64()
	}
	sink = sum
}

func BenchmarkDrawMathRand(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += r.Uint64()
	}
	sink = sum
}

// Seeding plus 5,000 Float64 draws is what one DAMON profile costs its noise
// stream: one draw per touched granule, about 5,700 per catalog trace.
func BenchmarkSeedAndDraw5000Stream(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		var s Stream
		s.Seed(int64(i))
		for j := 0; j < 5000; j++ {
			sum += s.Float64()
		}
	}
	fsink = sum
}

// Seeding plus skipping 5,000 Float64 values is what a DAMON profile costs
// its noise stream once every granule is in a band at its floor.
func BenchmarkSeedAndSkip5000Stream(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		var s Stream
		s.Seed(int64(i))
		s.Skip(5000)
		sum += s.Float64()
	}
	fsink = sum
}

func BenchmarkSeedAndDraw5000MathRand(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 5000; j++ {
			sum += r.Float64()
		}
	}
	fsink = sum
}

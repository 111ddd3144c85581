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

func FuzzLazyRand(f *testing.F) {
	for _, seed := range specialSeeds {
		f.Add(seed, uint16(streamDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		compare(t, seed, int(n))
	})
}

// sink keeps the benchmarks' draws live.
var sink uint64

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

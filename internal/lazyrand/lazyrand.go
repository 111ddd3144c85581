// Package lazyrand is a math/rand source for seeds that draw only a few
// values. New(seed) yields exactly the stream of rand.NewSource(seed), for
// every seed and every draw, but seeds in constant time and pays only for
// the words it reads.
//
// math/rand's source is an additive lagged-Fibonacci register of 607 words
// with tap 273. Seeding fills the whole register from 1,841 serial
// Park–Miller steps before the first draw: seeding plus ten draws took
// 13.6–14.9 µs and 5,376 B on a 2-core Xeon host, against 0.28–0.34 µs and
// 24 B here (BenchmarkSeedAndDraw10*, two runs). The simulator seeds two
// sources per compiled trace, and the serve loop compiles one trace per
// request, so that fill dominated trace compilation although a trace reads
// only a handful of words. This source instead computes register word i on
// demand from a table of 48271^k mod (2³¹−1), in three independent
// multiply-mods. Draw k < 273 reads only words that still hold their seeded
// values (word 333−k plus word 606−k), so those draws need no register at
// all. Draw 273 is the first to read a word that an earlier draw wrote
// back; there the full register is built, the 273 write-backs are replayed,
// and the source continues as math/rand's does.
//
// Use it where a seed is drawn per invocation and read only a few times:
//
//   - workload.Spec.Trace's builder rng draws one Float64 per jittered
//     quantity: at most 80 values per trace for json_load_dump and at most 5
//     for the other nine Table I functions;
//   - guest.NewAllocator draws one Int63n per heap allocation: at most 80
//     per trace for json_load_dump and at most 4 for the other nine.
//
// Both counts are maxima over 199 seeds × four levels of every function, so
// the trace path never builds the register.
//
// DAMON's profiler draws more: one Float64 per touched granule, about 5,700
// per catalog trace, from a seed per profiled invocation. It uses Stream,
// the same generator as a value on its caller's stack, which fills the whole
// register from the table at once and whose Float64 inlines. Seeding plus
// 5,000 Float64s took 20–27 µs and 0 B on a 2-core Xeon host, against
// 39–49 µs and 5,376 B through math/rand (BenchmarkSeedAndDraw5000*, five
// runs each). Most of those values DAMON never reads: once a run of
// granules sits in a band where no sample can change the region's count
// (damon.Config.Profile's band identity), it passes them with Stream.Skip,
// which steps the register exactly as that many Float64s would, retries
// included, without converting the words. That is 88% of a catalog
// profile's draws. Seeding plus Skip(5000) took 11.1–12.4 µs on the same
// host, against 18.7–23.7 µs for seeding plus 5,000 Float64s
// (BenchmarkSeedAndSkip5000Stream, five runs each). Sources seeded once
// that then draw thousands to millions of values (workload arrivals,
// streams and per-function mixes, faasim's request mix) stay on math/rand:
// seeding costs them little.
//
// The package recovers math/rand's unexported seeding table at init from
// the public API: 607 draws from rand.NewSource(1) are exactly its final
// register, running the recurrence backwards gives its seeded register, and
// removing seed 1's Park–Miller words leaves the table. Should Go ever
// change the stream, the differential tests fail.
package lazyrand

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// modulus is the Park–Miller prime 2³¹−1; multiplier its generator.
	modulus    = 1<<31 - 1
	multiplier = 48271
	// zeroSeed replaces a seed that is 0 modulo 2³¹−1, as math/rand does.
	zeroSeed = 89482311
	// skip is the number of Park–Miller steps math/rand discards before
	// the first register word.
	skip = 20
)

var (
	// powers[3i+j] = 48271^(skip+1+3i+j) mod (2³¹−1): the multipliers of
	// the three Park–Miller words that make up register word i.
	powers [3 * rngLen]uint64
	// cooked is math/rand's seeding table, XORed into every word.
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < skip; k++ {
		p = mulMod(p, multiplier)
	}
	for j := range powers {
		p = mulMod(p, multiplier)
		powers[j] = p
	}

	ref := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	for k := 0; k < rngLen; k++ {
		vec[feedAt(k)] = ref.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		vec[feedAt(k)] -= vec[tapAt(k)]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ chain(1, i)
	}
}

// feedAt and tapAt are the register words math/rand's draw k, for k in
// [0, rngLen) counted from the seed, writes and adds.
func feedAt(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
func tapAt(k int) int  { return rngLen - 1 - k }

// mulMod returns a·b mod 2³¹−1 by Mersenne folding. For a and b in
// [1, 2³¹−2], as every seed and power here is, a·b < 2⁶²−2³³ and is never a
// multiple of the prime, so two folds land exactly in [1, 2³¹−2].
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&modulus + x>>31
	return x&modulus + x>>31
}

// chain returns the Park–Miller part of register word i for a normalised
// seed: x<<40 ^ y<<20 ^ z for the word's three consecutive chain values.
func chain(seed uint64, i int) uint64 {
	m := powers[3*i : 3*i+3]
	return mulMod(seed, m[0])<<40 ^ mulMod(seed, m[1])<<20 ^ mulMod(seed, m[2])
}

// normalise maps a seed to its Park–Miller start value exactly as
// math/rand's Seed does.
func normalise(seed int64) uint64 {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// New returns a *rand.Rand whose stream equals rand.New(rand.NewSource(seed))
// for every method. Like math/rand's, it is not safe for concurrent use.
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// Stream is math/rand's generator as a value, for a caller that seeds once
// and then draws thousands of Float64s. Seed fills the whole register from
// independent multiply-mods, where math/rand runs 1,841 serial Park–Miller
// steps, and a Stream that does not escape lives on its caller's stack, so
// seeding allocates nothing. Float64 inlines into the caller's loop and
// returns exactly what rand.New(rand.NewSource(seed)).Float64 would. The
// zero Stream is unseeded; like math/rand's, it is not safe for concurrent
// use.
type Stream struct {
	r register
}

// Seed restarts the stream at rand.NewSource(seed)'s first draw.
func (s *Stream) Seed(seed int64) { s.r.seed(normalise(seed)) }

// Float64 returns the next value of rand.Rand.Float64 over this stream:
// float64(Int63()) / 2⁶³, drawn again in the rare case (one draw in 2⁵⁴)
// that the quotient rounds up to 1. The values lie in [0, MaxFloat64].
func (s *Stream) Float64() float64 {
	for {
		if f := float64(int64(s.r.next()&rngMask)) / (1 << 63); f != 1 {
			return f
		}
	}
}

// MaxFloat64 is the largest value Float64 returns, 1−2⁻⁵³: the quotient of
// every Int63 below retryAt, rounded to float64, is at most 1−2⁻⁵³.
const MaxFloat64 = 1 - 0x1p-53

// retryAt is the least Int63 whose Float64 quotient rounds up to 1, so
// that Float64 draws again: float64 rounds 2⁶³−2⁹, the tie between
// 2⁶³−2¹⁰ and 2⁶³, to the even 2⁶³.
const retryAt = 1<<63 - 1<<9

// Skip advances the stream past its next n Float64 values, retries
// included, as n calls to Float64 would, without converting the words it
// discards. A Skip of n <= 0 draws nothing.
func (s *Stream) Skip(n int) {
	for n > 0 {
		n = s.r.advance(n)
	}
}

// source implements rand.Source64.
type source struct {
	seed uint64    // normalised seed
	n    int       // draws taken while reg is nil
	reg  *register // built on draw rngTap
}

// register is math/rand's rngSource state.
type register struct {
	tap, feed int
	vec       [rngLen]uint64
}

func (s *source) Seed(seed int64) {
	*s = source{seed: normalise(seed)}
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *source) Uint64() uint64 {
	if s.reg == nil {
		if s.n < rngTap {
			k := s.n
			s.n++
			return word(s.seed, feedAt(k)) + word(s.seed, tapAt(k))
		}
		s.reg = s.build()
	}
	return s.reg.next()
}

// build returns the register as it stands after the first rngTap draws.
func (s *source) build() *register {
	r := &register{}
	r.seed(s.seed)
	for k := 0; k < rngTap; k++ {
		r.next()
	}
	return r
}

// word returns register word i as seeding with a normalised seed leaves it.
func word(seed uint64, i int) uint64 { return chain(seed, i) ^ cooked[i] }

// seed sets the register as math/rand's Seed leaves it, before any draw.
func (r *register) seed(n uint64) {
	r.tap, r.feed = 0, rngLen-rngTap
	for i := range r.vec {
		r.vec[i] = word(n, i)
	}
}

// next is math/rand's rngSource.Uint64.
func (r *register) next() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// advance takes n steps of next and returns how many of the words drawn
// Float64 would have drawn again for. Between wraps of either index the
// steps run over two slices in next's order, with no wrap test per step.
func (r *register) advance(n int) (retries int) {
	for n > 0 {
		k := min(n, r.feed, r.tap)
		if k == 0 {
			if r.next()&rngMask >= retryAt {
				retries++
			}
			n--
			continue
		}
		feed, tap := r.vec[r.feed-k:r.feed], r.vec[r.tap-k:r.tap]
		tap = tap[:len(feed)]
		for i := len(feed) - 1; i >= 0; i-- {
			x := feed[i] + tap[i]
			feed[i] = x
			// Bit 63 of x&rngMask + 2⁶³−retryAt is set when x&rngMask >=
			// retryAt: a carry, not a branch, per word.
			retries += int((x&rngMask + (1<<63 - retryAt)) >> 63)
		}
		r.feed -= k
		r.tap -= k
		n -= k
	}
	return retries
}

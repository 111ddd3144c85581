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
// the trace path never builds the register. Sources seeded once that then
// draw thousands to millions of values (workload arrivals and streams,
// trace.Config, DAMON profiling and monitors, faasim's request mix) stay on
// math/rand: seeding costs them little, and this source's steady-state draw
// is no faster.
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
			return s.word(feedAt(k)) + s.word(tapAt(k))
		}
		s.reg = s.build()
	}
	return s.reg.next()
}

// word returns register word i as seeding leaves it.
func (s *source) word(i int) uint64 { return chain(s.seed, i) ^ cooked[i] }

// build returns the register as it stands after the first rngTap draws.
func (s *source) build() *register {
	r := &register{tap: tapAt(rngTap - 1), feed: feedAt(rngTap - 1)}
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for k := 0; k < rngTap; k++ {
		r.vec[feedAt(k)] += r.vec[tapAt(k)]
	}
	return r
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

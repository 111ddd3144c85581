package workload

import (
	"math"
	"math/rand"

	"toss/internal/simtime"
)

// This file is the streaming half of the arrival generator family. The
// materialized Arrivals() and the pull-based Stream share the same two
// generator state machines (baseGen, episodeGen), so "streaming equals
// materialized" is structural rather than a re-implementation that could
// drift: both paths consume the rng in the same order, and a golden test
// pins byte-identity of the sequences. Streaming exists for the day-scale
// runs (ext10): a 24h trace at ~8 arrivals/ms is >1M ArrivalSpecs, which
// should flow through the cluster core one at a time instead of living in a
// ~100MB slice first.

// Source yields a time-ordered arrival sequence one spec at a time. Next
// returns ok=false when the sequence is exhausted; implementations are not
// safe for concurrent use. The cluster core pulls from a single goroutine
// of its own, ahead of its event loop, so a Source must not depend on the
// simulation's state.
type Source interface {
	Next() (ArrivalSpec, bool)
}

// SliceSource adapts a materialized schedule to the Source interface, so
// callers holding a []ArrivalSpec (tests, the faasim CLI) can feed the same
// streaming entry points.
func SliceSource(xs []ArrivalSpec) Source { return &sliceSource{xs: xs} }

type sliceSource struct {
	xs []ArrivalSpec
	i  int
}

func (s *sliceSource) Next() (ArrivalSpec, bool) {
	if s.i >= len(s.xs) {
		return ArrivalSpec{}, false
	}
	a := s.xs[s.i]
	s.i++
	return a, true
}

// Stream is the streaming equivalent of Arrivals: it yields the exact same
// sequence (same config, same seed => byte-identical specs in the same
// order) without materializing it. Memory use is O(1) in the horizon.
//
// How the equivalence works: Arrivals draws the full baseline and then the
// episode overlay from one rng stream, concatenates, and stable-sorts on
// time. Both sub-sequences are individually time-sorted (inter-arrival
// draws are clamped to >= 1ns, and episodes provably never overlap — each
// ends before 0.625x the episode spacing past its anchor while the next
// begins after 0.75x), so the stable sort is exactly a two-way merge that
// prefers the baseline on ties (baseline entries precede episode entries in
// the concatenation). Stream performs that merge directly. The episode
// generator gets its own rng seeded identically and fast-forwarded past the
// baseline's draws in discard mode — O(horizon/IAT) setup time, O(1) memory
// — so the two lazy generators each see the same draw sub-stream they would
// have consumed in the single-threaded materialized pass.
type Stream struct {
	base     *baseGen
	eps      *episodeGen
	baseNext ArrivalSpec
	baseOK   bool
	epsNext  ArrivalSpec
	epsOK    bool
}

// NewStream validates the config and returns a streaming generator over it.
func NewStream(c ArrivalsConfig) (*Stream, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{}
	cc := c // one stable copy shared by both generators
	s.base = newBaseGen(&cc, rand.New(rand.NewSource(cc.Seed)))
	if cc.Process == ProcFlash || cc.Process == ProcDiurnalFlash {
		// Fast-forward a second identically-seeded rng past the baseline's
		// draws, discarding the specs; the episode generator then continues
		// from the exact rng state the materialized pass would hand it.
		erng := rand.New(rand.NewSource(cc.Seed))
		ff := newBaseGen(&cc, erng)
		for {
			if _, ok := ff.next(); !ok {
				break
			}
		}
		s.eps = newEpisodeGen(&cc, erng)
	}
	s.baseNext, s.baseOK = s.base.next()
	if s.eps != nil {
		s.epsNext, s.epsOK = s.eps.next()
	}
	return s, nil
}

// Next yields the next arrival in global time order.
func (s *Stream) Next() (ArrivalSpec, bool) {
	switch {
	case s.baseOK && (!s.epsOK || s.baseNext.At <= s.epsNext.At):
		a := s.baseNext
		s.baseNext, s.baseOK = s.base.next()
		return a, true
	case s.epsOK:
		a := s.epsNext
		s.epsNext, s.epsOK = s.eps.next()
		return a, true
	default:
		return ArrivalSpec{}, false
	}
}

// baseGen draws the baseline process: homogeneous Poisson, or the
// sinusoidally thinned diurnal variant for ProcDiurnal/ProcDiurnalFlash.
// Draw order per emitted arrival is pinned by the golden file: one expIAT,
// an optional thinning Float64, then the sample draws.
type baseGen struct {
	c       *ArrivalsConfig
	rng     *rand.Rand
	t       simtime.Duration
	meanIAT simtime.Duration
	day     float64
	diurnal bool
}

func newBaseGen(c *ArrivalsConfig, rng *rand.Rand) *baseGen {
	g := &baseGen{c: c, rng: rng, meanIAT: c.MeanIAT}
	if c.Process == ProcDiurnal || c.Process == ProcDiurnalFlash {
		// Base Poisson at 2x the average rate, thinned by (1+sin)/2 over a
		// day of Horizon/2 (every run sees full cycles).
		g.diurnal = true
		g.day = float64(c.Horizon) / 2
		g.meanIAT = c.MeanIAT / 2
	}
	return g
}

func (g *baseGen) next() (ArrivalSpec, bool) {
	for {
		g.t += expIAT(g.meanIAT, g.rng)
		if g.t >= g.c.Horizon {
			return ArrivalSpec{}, false
		}
		if g.diurnal {
			keep := (1 + math.Sin(2*math.Pi*float64(g.t)/g.day)) / 2
			if g.rng.Float64() >= keep {
				continue
			}
		}
		return g.c.sample(g.t, -1, g.rng), true
	}
}

// episodeGen draws the flash-crowd overlay: episodes tile the horizon at
// ~Horizon/6 spacing, each ~Horizon/24 long with jitter, and each picks its
// own hot function; inside an episode an extra Poisson process at
// (FlashFactor-1)x the base rate fires, FlashHotShare of it on the hot
// function.
type episodeGen struct {
	c        *ArrivalsConfig
	rng      *rand.Rand
	hotShare float64
	extraIAT simtime.Duration
	spacing  simtime.Duration
	length   simtime.Duration
	start    simtime.Duration // anchor of the next episode to open
	active   bool
	et       simtime.Duration // clock within the active episode
	end      simtime.Duration
	hot      int
}

func newEpisodeGen(c *ArrivalsConfig, rng *rand.Rand) *episodeGen {
	factor := c.FlashFactor
	if factor <= 0 {
		factor = 8
	}
	hotShare := c.FlashHotShare
	if hotShare == 0 {
		hotShare = 0.7
	}
	g := &episodeGen{
		c:        c,
		rng:      rng,
		hotShare: hotShare,
		extraIAT: simtime.Duration(float64(c.MeanIAT) / (factor - 1)),
		spacing:  c.Horizon / 6,
		length:   c.Horizon / 24,
	}
	g.start = g.spacing / 2
	return g
}

func (g *episodeGen) next() (ArrivalSpec, bool) {
	for {
		if !g.active {
			if g.start >= g.c.Horizon {
				return ArrivalSpec{}, false
			}
			begin := g.start + simtime.Duration(float64(g.spacing/4)*(g.rng.Float64()*2-1))
			end := begin + simtime.Duration(float64(g.length)*(0.5+g.rng.Float64()))
			if end > g.c.Horizon {
				end = g.c.Horizon
			}
			g.hot = g.rng.Intn(len(g.c.Functions))
			g.et = begin
			g.end = end
			g.start += g.spacing
			g.active = true
		}
		g.et += expIAT(g.extraIAT, g.rng)
		if g.et >= g.end {
			g.active = false
			continue
		}
		fn := g.hot
		if g.rng.Float64() >= g.hotShare {
			fn = -1 // fall back to the weighted sample
		}
		return g.c.sample(g.et, fn, g.rng), true
	}
}

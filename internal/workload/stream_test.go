package workload

import (
	"math/rand"
	"sort"
	"testing"

	"toss/internal/simtime"
)

// referenceArrivals is the materialized pass that defines the cluster
// arrival processes' seed contract: one seeded rng draws the whole baseline,
// then (for the flash family) the episode overlay, and the concatenation is
// stable-sorted on time, so equal-time arrivals keep generation order.
// Stream must yield exactly this sequence without materializing it.
func referenceArrivals(c ArrivalsConfig) ([]ArrivalSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	var out []ArrivalSpec
	base := newBaseGen(&c, rng)
	for {
		a, ok := base.next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	if c.Process == ProcFlash || c.Process == ProcDiurnalFlash {
		eps := newEpisodeGen(&c, rng)
		for {
			a, ok := eps.next()
			if !ok {
				break
			}
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// drain pulls a Source dry.
func drain(t *testing.T, s Source) []ArrivalSpec {
	t.Helper()
	var out []ArrivalSpec
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// streamed returns c's whole stream.
func streamed(t *testing.T, c ArrivalsConfig) []ArrivalSpec {
	t.Helper()
	st, err := NewStream(c)
	if err != nil {
		t.Fatalf("%s: %v", c.Process, err)
	}
	return drain(t, st)
}

// TestStreamMatchesArrivals is the streaming-vs-materialized equivalence
// test: for every process and a spread of seeds and shapes, NewStream must
// yield the exact sequence referenceArrivals materializes — same specs,
// same order, byte for byte.
func TestStreamMatchesArrivals(t *testing.T) {
	configs := []ArrivalsConfig{
		{Process: ProcPoisson, Horizon: 90 * simtime.Second, MeanIAT: 300 * simtime.Millisecond, Functions: []string{"json_load_dump", "pyaes"}},
		{Process: ProcDiurnal, Horizon: 120 * simtime.Second, MeanIAT: 250 * simtime.Millisecond,
			Functions: []string{"json_load_dump", "pyaes", "compress"}},
		{Process: ProcFlash, Horizon: 120 * simtime.Second, MeanIAT: 400 * simtime.Millisecond,
			Functions: []string{"json_load_dump", "pyaes", "compress"}},
		{Process: ProcFlash, Horizon: 45 * simtime.Second, MeanIAT: 120 * simtime.Millisecond,
			Functions: []string{"pyaes", "compress"}, FlashFactor: 3},
		{Process: ProcDiurnalFlash, Horizon: 180 * simtime.Second, MeanIAT: 200 * simtime.Millisecond,
			Functions: []string{"json_load_dump", "pyaes", "compress"}},
	}
	for _, base := range configs {
		for _, seed := range []int64{1, 7, 42, 99991} {
			c := base
			c.Seed = seed
			name := c.Process.String()
			want, err := referenceArrivals(c)
			if err != nil {
				t.Fatalf("%s seed=%d: referenceArrivals: %v", name, seed, err)
			}
			st, err := NewStream(c)
			if err != nil {
				t.Fatalf("%s seed=%d: NewStream: %v", name, seed, err)
			}
			got := drain(t, st)
			if len(got) != len(want) {
				t.Fatalf("%s seed=%d: stream yielded %d arrivals, materialized %d", name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed=%d: arrival %d differs:\n  stream:       %+v\n  materialized: %+v",
						name, seed, i, got[i], want[i])
				}
			}
			// Exhausted streams stay exhausted.
			if _, ok := st.Next(); ok {
				t.Fatalf("%s seed=%d: stream yielded past exhaustion", name, seed)
			}
		}
	}
}

// TestStreamRejectsInvalidConfig checks NewStream validates its config.
func TestStreamRejectsInvalidConfig(t *testing.T) {
	if _, err := NewStream(ArrivalsConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

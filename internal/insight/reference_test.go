package insight

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"toss/internal/emit"
	"toss/internal/simtime"
)

// refSummaries is the fold the Engine's running summaries are held to: it
// computes each summary field from every observation of a series, kept in
// feed order. The first time is the first observation's; the last
// point is the latest in time, the later fed among equal times; min and max
// come from the sorted values; the mean is the feed-order sum over the
// count.
func refSummaries(obs map[string][]refObs) []SeriesSummary {
	names := make([]string, 0, len(obs))
	for n := range obs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SeriesSummary, 0, len(names))
	for _, n := range names {
		list := obs[n]
		last := 0
		values := make([]float64, len(list))
		var sum float64
		for i, o := range list {
			if o.at >= list[last].at {
				last = i
			}
			values[i] = o.v
			sum += o.v
		}
		sort.Float64s(values)
		out = append(out, SeriesSummary{
			Name:    n,
			Points:  int64(len(list)),
			FirstAt: list[0].at,
			LastAt:  list[last].at,
			Min:     emit.Float(values[0]),
			Max:     emit.Float(values[len(values)-1]),
			Mean:    emit.Float(sum / float64(len(list))),
			Last:    emit.Float(list[last].v),
		})
	}
	return out
}

// refObs is one observation the reference fold keeps.
type refObs struct {
	at simtime.Duration
	v  float64
}

// feedBytes decodes data into observations on an engine and the reference
// fold: each 4-byte record picks a series, a signed time step scaled by up
// to 2^31, and a value. Steps backward reach before a series' first
// observation and before time 0.
func feedBytes(data []byte) (*Engine, map[string][]refObs) {
	e, ref := NewEngine(), make(map[string][]refObs)
	var at simtime.Duration
	for ; len(data) >= 4; data = data[4:] {
		name := [...]string{"a", "b", "c"}[data[0]%3]
		at += simtime.Duration(int8(data[1])) << (data[2] % 32)
		v := float64(int8(data[3])) / 4
		e.Observe(name, at, v)
		ref[name] = append(ref[name], refObs{at, v})
	}
	return e, ref
}

// checkAgainstRef requires the engine's summaries to equal the reference
// fold's.
func checkAgainstRef(t *testing.T, e *Engine, ref map[string][]refObs) {
	t.Helper()
	if got, want := e.Result("").Series, refSummaries(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("summaries differ from the reference fold:\n got %+v\nwant %+v", got, want)
	}
}

// TestSeriesMatchesFold feeds random sequences — forward steps, steps back
// before a series' first observation, and gaps up to 2^31 steps wide — to
// the Engine and the reference fold, and requires every summary field to
// match.
func TestSeriesMatchesFold(t *testing.T) {
	backward := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(1+rng.Intn(600)))
		rng.Read(data)
		for i := 0; i+4 <= len(data); i += 4 {
			switch rng.Intn(8) {
			case 0: // a gap of 2^20..2^31 steps
				data[i+2] = byte(20 + rng.Intn(12))
			default: // a short step, mostly forward
				data[i+1] = byte(int8(rng.Intn(40) - 8))
				data[i+2] = byte(rng.Intn(12))
			}
		}
		e, ref := feedBytes(data)
		checkAgainstRef(t, e, ref)
		for _, list := range ref {
			for _, o := range list[1:] {
				if o.at < list[0].at {
					backward++
				}
			}
		}
	}
	if backward == 0 {
		t.Fatal("no sequence observed a series before its first observation")
	}
}

// FuzzSeriesMatchesFold: for any observation sequence, the Engine's
// summaries equal the reference fold's.
func FuzzSeriesMatchesFold(f *testing.F) {
	f.Add([]byte{0, 1, 0, 8, 1, 100, 3, 4, 2, 0x80, 0, 0x7f})
	f.Add([]byte{0, 5, 0, 1, 0, 0xfb, 0, 2, 1, 100, 30, 0xf0, 0, 1, 0, 3})
	// Both series observed only before time 0; "a" steps back before its
	// first observation, then returns to its last point's time.
	f.Add([]byte{1, 0xfb, 20, 12, 0, 5, 0, 1, 1, 0, 0, 0xf0, 0, 0xfb, 0, 2, 0, 5, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, ref := feedBytes(data)
		checkAgainstRef(t, e, ref)
	})
}

// refBurnTracker is the SLO burn tracker the cluster's event loop and
// faasim's replay slid beside insight's burn rule until the rule took over
// its account: run-long totals, and the peak windowed burn rate over one
// sliding window with the time it was first reached. A window that is not
// positive keeps no peak. It is the reference BurnStats is held to.
type refBurnTracker struct {
	Objective simtime.Duration
	Window    simtime.Duration

	total      int64
	violations int64

	// live holds the completions within the current window.
	live BurnWindow

	peakRate float64
	peakAt   simtime.Duration
}

// Record feeds one completion at virtual time at with end-to-end latency
// latency. Calls must be in nondecreasing at order.
func (t *refBurnTracker) Record(at, latency simtime.Duration) {
	violated := latency > t.Objective
	t.total++
	if violated {
		t.violations++
	}
	if t.Window <= 0 {
		return
	}
	t.live.Record(at, t.Window, violated)
	if rate := t.live.Fraction(); rate > t.peakRate {
		t.peakRate, t.peakAt = rate, at
	}
}

// BurnRate returns the run-long violation fraction.
func (t *refBurnTracker) BurnRate() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.violations) / float64(t.total)
}

// Summary renders the one-paragraph SLO report faasim printed.
func (t *refBurnTracker) Summary() string {
	if t.total == 0 {
		return "slo: no completions recorded\n"
	}
	out := fmt.Sprintf("slo %v: %d/%d over objective (burn rate %.1f%%)",
		t.Objective, t.violations, t.total, t.BurnRate()*100)
	if t.Window > 0 {
		out += fmt.Sprintf("; peak %v-windowed burn %.1f%% at t=%v",
			t.Window, t.peakRate*100, t.peakAt)
	}
	return out + "\n"
}

// TestBurnRuleMatchesTracker feeds seeded latency streams through a burn
// rule and through the tracker it replaced, and requires the same
// completions, violations, peak and peak time. The streams hold runs of
// equal timestamps and latencies at the objective; the windows include
// zero and a negative one, and some streams are empty. Where faasim can
// print the line (a positive window, or no completions), the rendered
// `slo …` line must match too.
func TestBurnRuleMatchesTracker(t *testing.T) {
	windows := []simtime.Duration{-simtime.Second, 0, simtime.Millisecond,
		50 * simtime.Millisecond, simtime.Second, 10 * simtime.Second}
	var empty, ties int
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		objective := simtime.Duration(1+rng.Intn(100)) * simtime.Millisecond
		window := windows[int(seed)%len(windows)]
		ref := &refBurnTracker{Objective: objective, Window: window}
		e := NewEngine(BurnRule("slo", "latency", objective, window, 4*window, 0.1, 0.05))
		n := rng.Intn(800)
		if seed%10 == 0 {
			n = 0
		}
		var at simtime.Duration
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				at += simtime.Duration(rng.Int63n(int64(100 * simtime.Millisecond)))
			} else if i > 0 {
				ties++
			}
			lat := simtime.Duration(rng.Int63n(int64(2*objective) + 1))
			if rng.Intn(20) == 0 {
				lat = objective
			}
			ref.Record(at, lat)
			e.ObserveLatency("latency", at, lat)
		}
		got := e.Burn("slo")
		if got.Observations != ref.total || got.Violations != ref.violations ||
			got.Peak != ref.peakRate || got.PeakAt != ref.peakAt {
			t.Fatalf("seed %d (window %v): burn rule %d/%d peak %v at %v, tracker %d/%d peak %v at %v",
				seed, window, got.Violations, got.Observations, got.Peak, got.PeakAt,
				ref.violations, ref.total, ref.peakRate, ref.peakAt)
		}
		if window > 0 || n == 0 {
			if line, want := got.String()+"\n", ref.Summary(); line != want {
				t.Fatalf("seed %d: slo line\n %q\nwant\n %q", seed, line, want)
			}
		}
		if n == 0 {
			empty++
		}
	}
	if empty == 0 || ties == 0 {
		t.Fatalf("streams covered %d empty runs and %d equal timestamps; both must be exercised", empty, ties)
	}
}

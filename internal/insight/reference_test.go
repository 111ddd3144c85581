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

// refStore is the bucketed series store the Engine's running summaries
// replaced: every series keeps up to BucketBudget exact count/sum/min/max
// buckets, and on overflow adjacent buckets merge pairwise and the width
// doubles. It is the reference the Engine's shape arithmetic is held to.
type refStore struct {
	resolution simtime.Duration
	series     map[string]*refSeries
}

// refBucket is one time slot: the exact count, sum, min and max of the
// observations that landed in it.
type refBucket struct {
	count    int64
	sum      float64
	min, max float64
}

func (b *refBucket) merge(o refBucket) {
	if o.count == 0 {
		return
	}
	if b.count == 0 {
		*b = o
		return
	}
	b.count += o.count
	b.sum += o.sum
	b.min = min(b.min, o.min)
	b.max = max(b.max, o.max)
}

func (b *refBucket) observe(v float64) {
	if b.count == 0 || v < b.min {
		b.min = v
	}
	if b.count == 0 || v > b.max {
		b.max = v
	}
	b.count++
	b.sum += v
}

type refSeries struct {
	start, width    simtime.Duration
	buckets         []refBucket
	downsamples     int
	points          int64
	sum             float64
	min, max, last  float64
	firstAt, lastAt simtime.Duration
}

func newRefStore(resolution simtime.Duration) *refStore {
	return &refStore{resolution: resolution, series: make(map[string]*refSeries)}
}

func (st *refStore) observe(name string, at simtime.Duration, v float64) {
	s := st.series[name]
	if s == nil {
		s = &refSeries{
			start:   (at / st.resolution) * st.resolution,
			width:   st.resolution,
			buckets: make([]refBucket, 0, BucketBudget),
			firstAt: at,
		}
		st.series[name] = s
	}
	if at < s.start {
		at = s.start
	}
	idx := int((at - s.start) / s.width)
	for idx >= BucketBudget {
		n := (len(s.buckets) + 1) / 2
		for i := 0; i < n; i++ {
			b := s.buckets[2*i]
			if 2*i+1 < len(s.buckets) {
				b.merge(s.buckets[2*i+1])
			}
			s.buckets[i] = b
		}
		s.buckets = s.buckets[:n]
		s.width *= 2
		s.downsamples++
		idx = int((at - s.start) / s.width)
	}
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, refBucket{})
	}
	s.buckets[idx].observe(v)
	if s.points == 0 || v < s.min {
		s.min = v
	}
	if s.points == 0 || v > s.max {
		s.max = v
	}
	if s.points == 0 || at >= s.lastAt {
		s.last, s.lastAt = v, at
	}
	s.points++
	s.sum += v
}

func (st *refStore) summaries() []SeriesSummary {
	names := make([]string, 0, len(st.series))
	for n := range st.series {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SeriesSummary, 0, len(names))
	for _, n := range names {
		s := st.series[n]
		out = append(out, SeriesSummary{
			Name:        n,
			Points:      s.points,
			Buckets:     len(s.buckets),
			Downsamples: s.downsamples,
			Width:       s.width,
			FirstAt:     s.firstAt,
			LastAt:      s.lastAt,
			Min:         emit.Float(s.min),
			Max:         emit.Float(s.max),
			Mean:        emit.Float(s.sum / float64(s.points)),
			Last:        emit.Float(s.last),
		})
	}
	return out
}

// checkAgainstRef requires the engine's summaries and anchors to equal the
// reference store's, and the reference's buckets to account for every
// point.
func checkAgainstRef(t *testing.T, e *Engine, ref *refStore) {
	t.Helper()
	got, want := e.Result("").Series, ref.summaries()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summaries differ from the bucketed store:\n got %+v\nwant %+v", got, want)
	}
	for name, r := range ref.series {
		if s := e.series[name]; s.start != r.start {
			t.Fatalf("%s: start %v, reference %v", name, s.start, r.start)
		}
		var count int64
		for _, b := range r.buckets {
			count += b.count
		}
		if count != r.points {
			t.Fatalf("%s: reference buckets hold %d of %d points", name, count, r.points)
		}
	}
}

// feedBytes decodes data into observations on both an engine and the
// reference store: each 4-byte record picks a series, a signed time step
// scaled by up to 2^31, and a value. Steps backward reach before a
// series' anchor; scaled steps open gaps that force several doublings.
func feedBytes(data []byte) (*Engine, *refStore) {
	res := simtime.Microsecond
	if len(data) > 0 {
		res *= simtime.Duration(data[0]) + 1
		data = data[1:]
	}
	e, ref := NewEngine(res), newRefStore(res)
	var at simtime.Duration
	for ; len(data) >= 4; data = data[4:] {
		name := [...]string{"a", "b", "c"}[data[0]%3]
		at += simtime.Duration(int8(data[1])) << (data[2] % 32)
		v := float64(int8(data[3])) / 4
		e.Observe(name, at, v)
		ref.observe(name, at, v)
	}
	return e, ref
}

// TestEngineMatchesBucketedStore feeds random sequences — forward steps,
// steps back before the anchor, and gaps many bucket budgets wide — to the
// Engine and the bucketed reference, and requires every summary field to
// match.
func TestEngineMatchesBucketedStore(t *testing.T) {
	maxDown := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1+4*(1+rng.Intn(600)))
		rng.Read(data)
		for i := 1; i+4 <= len(data); i += 4 {
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
		for _, s := range ref.series {
			maxDown = max(maxDown, s.downsamples)
		}
	}
	if maxDown < 3 {
		t.Fatalf("no sequence forced more than %d doublings", maxDown)
	}
}

// FuzzEngineMatchesBucketedStore: for any observation sequence, the
// Engine's summaries equal the bucketed reference store's.
func FuzzEngineMatchesBucketedStore(f *testing.F) {
	f.Add([]byte{9, 0, 1, 0, 8, 1, 100, 3, 4, 2, 0x80, 0, 0x7f})
	f.Add([]byte{0, 0, 5, 0, 1, 0, 0xfb, 0, 2, 1, 100, 30, 0xf0, 0, 1, 0, 3})
	// Series "b" observed only before time 0.
	f.Add([]byte{9, 1, 0xfb, 20, 12, 0, 5, 0, 1, 1, 0, 0, 0xf0})
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
		e := NewEngine(0, BurnRule("slo", "latency", objective, window, 4*window, 0.1, 0.05))
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

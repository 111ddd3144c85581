// Package insight is the on-call surface over the stack's observability
// streams: a deterministic virtual-time time-series store, an alerting rules
// engine, and a cross-run regression sentinel.
//
// The simulator's record streams — cluster completions, migration epochs,
// xray attribution budgets — are producers; nothing before this package
// consumed them the way a production on-call rotation would. insight closes
// that loop:
//
//   - Store ingests observations stamped with virtual time into bounded,
//     resolution-doubling bucket series: when a series outgrows its bucket
//     budget, adjacent buckets merge pairwise and the bucket width doubles,
//     so a million-invocation run costs the same memory as a hundred-
//     invocation one and every merge is exact (count/sum/min/max compose).
//
//   - Engine evaluates rules purely in virtual time: threshold rules with a
//     sustained-for duration, and Google-SRE-style multi-window
//     multi-burn-rate SLO rules (a fast window to catch an ongoing burn, a
//     slow window to confirm it matters), each window an xray.BurnWindow.
//     The output is a deterministic alert log of fire/resolve edges, each
//     fire optionally blamed on the hottest xray segment at that moment.
//
//   - Compare judges two runs' flattened artifacts cell by cell — insight
//     dumps, xray attribution dumps, or benchjson reports — and Verdict
//     renders a markdown/HTML regression report; `tossctl report -fail`
//     turns it into a CI gate.
//
// insight is strictly a consumer. It attaches to nothing on the decision
// path: feeds replay completed runs (columnar cluster records, platform
// replay records, migration epochs) through their virtual timestamps, so
// attaching insight cannot change a scheduling, routing, or migration
// decision — the observer-identity property the experiments tests pin.
//
// Determinism follows the package conventions established by telemetry and
// fleetobs: all iteration orders are explicit, the dump encodes its types
// in fixed field order with fixed number spelling (emit.Float), and a Sink
// (par.Sink) folds per-cell results by sorted cell name so suite-level
// artifacts are byte-identical at any parallelism.
package insight

import (
	"sort"
	"sync"

	"toss/internal/emit"
	"toss/internal/simtime"
)

// Defaults for Config zero values.
const (
	// DefaultResolution is the initial bucket width of a fresh series.
	DefaultResolution = 100 * simtime.Millisecond
	// DefaultMaxBuckets bounds each series; on overflow the series
	// downsamples (buckets merge pairwise, width doubles) instead of
	// dropping points.
	DefaultMaxBuckets = 512
)

// Config parameterizes a Store.
type Config struct {
	// Resolution is the initial bucket width. A series' first observation
	// anchors its origin on a Resolution boundary; the width doubles every
	// time the series outgrows MaxBuckets. <= 0 uses DefaultResolution.
	Resolution simtime.Duration
	// MaxBuckets bounds every series' bucket count. <= 0 uses
	// DefaultMaxBuckets.
	MaxBuckets int
}

// Bucket is one downsampled time slot of a series: the exact count, sum,
// min, and max of every observation that landed in its interval. Merging two
// buckets loses no aggregate — the property the resolution-doubling
// downsampler relies on.
type Bucket struct {
	Count    int64
	Sum      float64
	Min, Max float64
}

// merge folds o into b.
func (b *Bucket) merge(o Bucket) {
	if o.Count == 0 {
		return
	}
	if b.Count == 0 {
		*b = o
		return
	}
	b.Count += o.Count
	b.Sum += o.Sum
	if o.Min < b.Min {
		b.Min = o.Min
	}
	if o.Max > b.Max {
		b.Max = o.Max
	}
}

// observe adds one value.
func (b *Bucket) observe(v float64) {
	if b.Count == 0 || v < b.Min {
		b.Min = v
	}
	if b.Count == 0 || v > b.Max {
		b.Max = v
	}
	b.Count++
	b.Sum += v
}

// Series is one named time series: a bounded run of buckets anchored at
// Start, plus whole-series aggregates. Time only moves forward through a
// feed; observations earlier than the anchor clamp into the first bucket.
type Series struct {
	// Name is the series identifier (telemetry.Labeled names pass through
	// verbatim).
	Name string
	// Start is the virtual time of bucket 0's left edge.
	Start simtime.Duration
	// Width is the current bucket width; it doubles on every downsample.
	Width simtime.Duration
	// Buckets are the live slots, oldest first.
	Buckets []Bucket

	// Downsamples counts resolution doublings.
	Downsamples int

	points          int64
	sum             float64
	min, max        float64
	first, last     float64
	firstAt, lastAt simtime.Duration
}

// Points returns the number of observations the series absorbed.
func (s *Series) Points() int64 { return s.points }

// Min returns the smallest observation (0 when empty).
func (s *Series) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Series) Max() float64 { return s.max }

// Mean returns the arithmetic mean observation (0 when empty).
func (s *Series) Mean() float64 {
	if s.points == 0 {
		return 0
	}
	return s.sum / float64(s.points)
}

// Last returns the most recent observation and its virtual time.
func (s *Series) Last() (float64, simtime.Duration) { return s.last, s.lastAt }

// First returns the earliest observation and its virtual time.
func (s *Series) First() (float64, simtime.Duration) { return s.first, s.firstAt }

// End returns the right edge of the last live bucket.
func (s *Series) End() simtime.Duration {
	return s.Start + simtime.Duration(len(s.Buckets))*s.Width
}

// Store is the deterministic virtual-time time-series store. All methods are
// safe for concurrent use, but byte-stable output requires feeding it in a
// deterministic order (the feeds in this package and its consumers all
// replay completed runs serially). A nil *Store no-ops every method.
type Store struct {
	mu     sync.Mutex
	cfg    Config
	series map[string]*Series
	now    simtime.Duration
}

// NewStore returns an enabled store.
func NewStore(cfg Config) *Store {
	if cfg.Resolution <= 0 {
		cfg.Resolution = DefaultResolution
	}
	if cfg.MaxBuckets <= 0 {
		cfg.MaxBuckets = DefaultMaxBuckets
	}
	return &Store{cfg: cfg, series: make(map[string]*Series)}
}

// Observe records value v on the named series at virtual time at.
func (st *Store) Observe(name string, at simtime.Duration, v float64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.observeLocked(name, at, v)
	st.mu.Unlock()
}

func (st *Store) observeLocked(name string, at simtime.Duration, v float64) {
	if at > st.now {
		st.now = at
	}
	s := st.series[name]
	if s == nil {
		s = &Series{
			Name:    name,
			Start:   (at / st.cfg.Resolution) * st.cfg.Resolution,
			Width:   st.cfg.Resolution,
			Buckets: make([]Bucket, 0, st.cfg.MaxBuckets),
		}
		s.first, s.firstAt = v, at
		st.series[name] = s
	}
	if at < s.Start {
		at = s.Start // interleaved sources may lag the anchor; clamp exactly
	}
	idx := int((at - s.Start) / s.Width)
	for idx >= st.cfg.MaxBuckets {
		s.downsample()
		idx = int((at - s.Start) / s.Width)
	}
	for len(s.Buckets) <= idx {
		s.Buckets = append(s.Buckets, Bucket{})
	}
	s.Buckets[idx].observe(v)
	if s.points == 0 || v < s.min {
		s.min = v
	}
	if s.points == 0 || v > s.max {
		s.max = v
	}
	s.points++
	s.sum += v
	if at >= s.lastAt {
		s.last, s.lastAt = v, at
	}
}

// downsample halves the series' resolution in place: buckets merge pairwise
// and the width doubles. Amortized O(1) per observation.
func (s *Series) downsample() {
	n := (len(s.Buckets) + 1) / 2
	for i := 0; i < n; i++ {
		b := s.Buckets[2*i]
		if 2*i+1 < len(s.Buckets) {
			b.merge(s.Buckets[2*i+1])
		}
		s.Buckets[i] = b
	}
	s.Buckets = s.Buckets[:n]
	s.Width *= 2
	s.Downsamples++
}

// Series returns the named series (nil when absent). The returned value is
// live; callers must not mutate it while feeding continues.
func (st *Store) Series(name string) *Series {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.series[name]
}

// Names returns every series name in sorted order.
func (st *Store) Names() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.series))
	for n := range st.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Now returns the store's virtual-time high-water mark.
func (st *Store) Now() simtime.Duration {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.now
}

// SeriesSummary is one series' exported aggregate block — the regression
// sentinel's comparison unit.
type SeriesSummary struct {
	// Name is the series identifier.
	Name string `json:"name"`
	// Points / Buckets / Downsamples describe the series' shape.
	Points      int64 `json:"points"`
	Buckets     int   `json:"buckets"`
	Downsamples int   `json:"downsamples"`
	// Width is the final bucket width.
	Width simtime.Duration `json:"width_ns"`
	// FirstAt / LastAt bound the observations in virtual time.
	FirstAt simtime.Duration `json:"first_ns"`
	LastAt  simtime.Duration `json:"last_ns"`
	// Min / Max / Mean / Last are the whole-series aggregates.
	Min  emit.Float `json:"min"`
	Max  emit.Float `json:"max"`
	Mean emit.Float `json:"mean"`
	Last emit.Float `json:"last"`
}

// Summaries returns every series' summary in sorted-name order.
func (st *Store) Summaries() []SeriesSummary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.series))
	for n := range st.series {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SeriesSummary, 0, len(names))
	for _, n := range names {
		s := st.series[n]
		out = append(out, SeriesSummary{
			Name:        s.Name,
			Points:      s.points,
			Buckets:     len(s.Buckets),
			Downsamples: s.Downsamples,
			Width:       s.Width,
			FirstAt:     s.firstAt,
			LastAt:      s.lastAt,
			Min:         emit.Float(s.min),
			Max:         emit.Float(s.max),
			Mean:        emit.Float(s.Mean()),
			Last:        emit.Float(s.last),
		})
	}
	return out
}

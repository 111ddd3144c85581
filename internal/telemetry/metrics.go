package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"toss/internal/stats"
)

// Metrics is a registry of named counters, gauges, and fixed-bucket
// histograms. Like the tracer, a nil *Metrics is the disabled registry: it
// hands out nil instruments whose methods no-op, so hot paths pay one
// pointer comparison when metrics are off.
//
// All instruments accumulate integers with commutative updates, so metric
// values are deterministic even when invocations run on concurrent
// goroutines (only gauge *last* values depend on update order; their min/max
// do not).
type Metrics struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewMetrics returns an enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level (queue depth, free cores, ...). It tracks
// the last, minimum, and maximum value ever set.
type Gauge struct {
	mu       sync.Mutex
	last     int64
	min, max int64
	everSet  bool
}

// Set records the gauge's current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.last = v
	if !g.everSet || v < g.min {
		g.min = v
	}
	if !g.everSet || v > g.max {
		g.max = v
	}
	g.everSet = true
	g.mu.Unlock()
}

// Histogram is a fixed-bucket distribution of int64 observations (virtual
// nanoseconds, page counts, queue depths). Bucket i counts observations
// v <= Bounds[i]; the final implicit bucket counts overflows.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64
	counts []int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation inside the bucket that holds the target rank; exact min/max
// anchor the extremes. Returns 0 for an empty histogram and an error for an
// out-of-range q.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("telemetry: quantile %v out of [0,1]", q)
	}
	if h == nil {
		return 0, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0, nil
	}
	if q == 0 {
		return float64(h.min), nil
	}
	if q == 1 {
		return float64(h.max), nil
	}
	rank := q * float64(h.n-1)
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo := float64(h.min)
			if i > 0 {
				lo = math.Max(lo, float64(h.bounds[i-1]))
			}
			hi := float64(h.max)
			if i < len(h.bounds) {
				hi = math.Min(hi, float64(h.bounds[i]))
			}
			if c == 1 || hi <= lo {
				return lo, nil
			}
			frac := (rank - float64(seen)) / float64(c-1)
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac, nil
		}
		seen += c
	}
	return float64(h.max), nil
}

// snapshot copies the histogram's state for export.
func (h *Histogram) snapshot() histSnap {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnap{
		bounds: append([]int64(nil), h.bounds...),
		counts: append([]int64(nil), h.counts...),
		n:      h.n, sum: h.sum, min: h.min, max: h.max,
	}
}

type histSnap struct {
	bounds, counts   []int64
	n, sum, min, max int64
}

// ExpBuckets returns up to n bucket bounds starting at first and growing by
// factor, rounded to integers — the standard latency bucket layout. Bounds
// saturate at math.MaxInt64: once the ceiling is reached, generation stops,
// so the result may hold fewer than n bounds but is always strictly
// ascending.
func ExpBuckets(first int64, factor float64, n int) []int64 {
	if first < 1 {
		first = 1
	}
	if factor <= 1 {
		factor = 2
	}
	out := make([]int64, 0, max(n, 0))
	v := float64(first)
	for i := 0; i < n; i++ {
		b := int64(math.MaxInt64)
		if v+0.5 < float64(math.MaxInt64) {
			b = int64(v + 0.5)
		}
		if len(out) > 0 && b <= out[len(out)-1] {
			if out[len(out)-1] == math.MaxInt64 {
				break
			}
			b = out[len(out)-1] + 1
		}
		out = append(out, b)
		v *= factor
	}
	return out
}

// LatencyBuckets is the default bucket layout for virtual-nanosecond
// latencies: 24 exponential buckets from 100 ns to ~0.8 s.
func LatencyBuckets() []int64 { return ExpBuckets(100, 2, 24) }

// Counter returns (creating if needed) the named counter. Nil-safe.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.ctrs[name]
	if !ok {
		c = &Counter{}
		m.ctrs[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the given
// bucket bounds; bounds are fixed at first creation and must be ascending.
// Nil-safe.
func (m *Metrics) Histogram(name string, bounds []int64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		m.hists[name] = h
	}
	return h
}

// Dump renders every instrument in deterministic (sorted-name) order. The
// distribution summary lines lean on internal/stats for the aggregate
// statistics across instruments.
func (m *Metrics) Dump() string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	ctrNames := sortedKeys(m.ctrs)
	gaugeNames := sortedKeys(m.gauges)
	histNames := sortedKeys(m.hists)
	ctrs, gauges, hists := m.ctrs, m.gauges, m.hists
	m.mu.Unlock()

	var b strings.Builder
	if len(ctrNames) > 0 {
		b.WriteString("counters:\n")
		for _, n := range ctrNames {
			fmt.Fprintf(&b, "  %-44s %d\n", n, ctrs[n].Value())
		}
	}
	if len(gaugeNames) > 0 {
		b.WriteString("gauges:\n")
		for _, n := range gaugeNames {
			g := gauges[n]
			g.mu.Lock()
			fmt.Fprintf(&b, "  %-44s last=%d min=%d max=%d\n", n, g.last, g.min, g.max)
			g.mu.Unlock()
		}
	}
	if len(histNames) > 0 {
		b.WriteString("histograms:\n")
		var means []float64
		for _, n := range histNames {
			h := hists[n]
			s := h.snapshot()
			p50, _ := h.Quantile(0.50)
			p99, _ := h.Quantile(0.99)
			mean := 0.0
			if s.n > 0 {
				mean = float64(s.sum) / float64(s.n)
				means = append(means, mean)
			}
			fmt.Fprintf(&b, "  %-44s n=%d mean=%.0f p50=%.0f p99=%.0f min=%d max=%d\n",
				n, s.n, mean, p50, p99, s.min, s.max)
		}
		if len(means) > 1 {
			fmt.Fprintf(&b, "  (across histograms: mean-of-means=%.0f max=%.0f)\n",
				stats.Mean(means), stats.Max(means))
		}
	}
	return b.String()
}

// Kind discriminates instrument types during Each iteration.
type Kind int

const (
	// KindCounter is a monotonically increasing Counter.
	KindCounter Kind = iota
	// KindGauge is a point-in-time Gauge.
	KindGauge
	// KindHistogram is a fixed-bucket Histogram.
	KindHistogram
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sample is a point-in-time copy of one instrument's state as delivered to
// Each callbacks. Counters fill Value; gauges fill Value (last set), Min and
// Max; histograms fill Count, Sum, Min, Max and the Bounds/Counts pair
// (Counts has one extra slot for overflows). Bounds and Counts are private
// copies the callback may keep.
type Sample struct {
	Value      int64
	Min, Max   int64
	Count, Sum int64
	Bounds     []int64
	Counts     []int64
}

// Each calls fn once per instrument with a consistent point-in-time sample:
// counters first, then gauges, then histograms, each group in sorted-name
// order. The deterministic order is what the exporters and the flight
// recorder in internal/obs rely on for byte-stable output. Nil-safe.
func (m *Metrics) Each(fn func(name string, kind Kind, s Sample)) {
	if m == nil {
		return
	}
	type namedC struct {
		name string
		c    *Counter
	}
	type namedG struct {
		name string
		g    *Gauge
	}
	type namedH struct {
		name string
		h    *Histogram
	}
	m.mu.Lock()
	ctrs := make([]namedC, 0, len(m.ctrs))
	for _, n := range sortedKeys(m.ctrs) {
		ctrs = append(ctrs, namedC{n, m.ctrs[n]})
	}
	gauges := make([]namedG, 0, len(m.gauges))
	for _, n := range sortedKeys(m.gauges) {
		gauges = append(gauges, namedG{n, m.gauges[n]})
	}
	hists := make([]namedH, 0, len(m.hists))
	for _, n := range sortedKeys(m.hists) {
		hists = append(hists, namedH{n, m.hists[n]})
	}
	m.mu.Unlock()

	for _, e := range ctrs {
		fn(e.name, KindCounter, Sample{Value: e.c.Value()})
	}
	for _, e := range gauges {
		e.g.mu.Lock()
		s := Sample{Value: e.g.last, Min: e.g.min, Max: e.g.max}
		e.g.mu.Unlock()
		fn(e.name, KindGauge, s)
	}
	for _, e := range hists {
		hs := e.h.snapshot()
		fn(e.name, KindHistogram, Sample{
			Min: hs.min, Max: hs.max, Count: hs.n, Sum: hs.sum,
			Bounds: hs.bounds, Counts: hs.counts,
		})
	}
}

// Reset zeroes every instrument in place. Instrument identities survive, so
// handles cached by hot paths keep working and record into the fresh state —
// tossctl reuses one registry across experiments this way. Histogram bucket
// bounds are kept. Nil-safe.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	ctrs := make([]*Counter, 0, len(m.ctrs))
	for _, c := range m.ctrs {
		ctrs = append(ctrs, c)
	}
	gauges := make([]*Gauge, 0, len(m.gauges))
	for _, g := range m.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(m.hists))
	for _, h := range m.hists {
		hists = append(hists, h)
	}
	m.mu.Unlock()

	for _, c := range ctrs {
		c.v.Store(0)
	}
	for _, g := range gauges {
		g.mu.Lock()
		g.last, g.min, g.max, g.everSet = 0, 0, 0, false
		g.mu.Unlock()
	}
	for _, h := range hists {
		h.mu.Lock()
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.n, h.sum, h.min, h.max = 0, 0, 0, 0
		h.mu.Unlock()
	}
}

// Labeled builds a labeled series name, name{k1="v1",k2="v2"}, from
// alternating key/value pairs. The registry treats the result as an opaque
// instrument name; the Prometheus exporter in internal/obs recognizes the
// {...} suffix and re-emits it as a label block. Keys and values must not
// contain '{', '}', '"', or ','. Label order is preserved verbatim, so call
// sites must use one fixed key order per series for updates to aggregate
// into a single instrument.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 2 + len(kv)*8)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(kv[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Canonical metric names used across the platform, collected here so
// dashboards and tests don't scatter string literals.
const (
	// microvm
	MetricFaultLatency  = "microvm.fault_latency_ns"
	MetricSetupTime     = "microvm.setup_ns"
	MetricExecTime      = "microvm.exec_ns"
	MetricSnapshotWrite = "microvm.snapshot_create_ns"
	MetricMajorFaults   = "microvm.major_faults"
	MetricMinorFaults   = "microvm.minor_faults"
	MetricRuns          = "microvm.runs"
	MetricFastTierTime  = "microvm.tier_fast_mem_ns"
	MetricSlowTierTime  = "microvm.tier_slow_mem_ns"
	MetricCPUTime       = "microvm.cpu_ns"
	// platform
	MetricInvocations    = "platform.invocations"
	MetricInvokeErrors   = "platform.errors"
	MetricBilledTime     = "platform.billed_ns"
	MetricPlatformFaults = "platform.major_faults"
	// sched
	MetricQueueDepth   = "sched.queue_depth"
	MetricQueueDelay   = "sched.queue_delay_ns"
	MetricColdStarts   = "sched.cold_starts"
	MetricWarmStarts   = "sched.warm_starts"
	MetricPrewarmHits  = "sched.prewarmed_starts"
	MetricBusyCoreTime = "sched.busy_core_ns"
	MetricFreeCores    = "sched.free_cores"
	// fault injection & recovery
	MetricFaultInjected   = "fault.injected"
	MetricFaultStallTime  = "fault.stall_ns"
	MetricFaultRetries    = "platform.fault_retries"
	MetricDegraded        = "platform.degraded"
	MetricRecoveryLatency = "platform.recovery_ns"
	MetricBreakerTrips    = "sched.breaker_trips"
	MetricEvictStorms     = "sched.evict_storms"
)

// TierUtilization derives per-tier memory-time shares of total execution
// time from the registry's counters: (fast share, slow share) in [0,1].
// Returns zeros when the registry is nil or nothing ran.
func (m *Metrics) TierUtilization() (fast, slow float64) {
	if m == nil {
		return 0, 0
	}
	exec := m.Counter(MetricCPUTime).Value() +
		m.Counter(MetricFastTierTime).Value() +
		m.Counter(MetricSlowTierTime).Value()
	if exec <= 0 {
		return 0, 0
	}
	return float64(m.Counter(MetricFastTierTime).Value()) / float64(exec),
		float64(m.Counter(MetricSlowTierTime).Value()) / float64(exec)
}

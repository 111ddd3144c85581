package main

import (
	"fmt"
	"sort"
	"time"

	"toss/internal/simtime"
)

// probe times calls into the layers during a traced run. Untraced, start
// returns the zero time and stop and count do nothing, so the timed phase
// pays one branch per call site.
//
// excluded accumulates host time the timed phase must not count, in both
// modes: the benchmark's own bookkeeping, and, in a traced run, calls
// re-issued to measure one layer on its own.
type probe struct {
	traced   bool
	sums     map[string]time.Duration
	counts   map[string]float64
	samples  map[string][]time.Duration
	excluded time.Duration
	derived  []metric
}

func newProbe(traced bool) *probe {
	return &probe{
		traced:  traced,
		sums:    map[string]time.Duration{},
		counts:  map[string]float64{},
		samples: map[string][]time.Duration{},
	}
}

func (p *probe) start() time.Time {
	if !p.traced {
		return time.Time{}
	}
	return time.Now()
}

// stop charges the time since t0 to a layer and returns it.
func (p *probe) stop(name string, t0 time.Time) time.Duration {
	if !p.traced {
		return 0
	}
	d := time.Since(t0)
	p.sums[name] += d
	return d
}

// sample charges the time since t0 to name+"_s" and keeps the call's
// duration for name+"_p99_us".
func (p *probe) sample(name string, t0 time.Time) {
	if p.traced {
		p.samples[name] = append(p.samples[name], p.stop(name+"_s", t0))
	}
}

// move re-attributes d from one layer to another.
func (p *probe) move(from, to string, d time.Duration) {
	p.sums[from] -= d
	p.sums[to] += d
}

// reset drops everything measured so far (set-up calls the same layers).
func (p *probe) reset() {
	*p = *newProbe(p.traced)
}

func (p *probe) count(name string, v float64) {
	if p.traced {
		p.counts[name] += v
	}
}

// exclude removes the host time since t0 from the timed phase.
func (p *probe) exclude(t0 time.Time) { p.excluded += time.Since(t0) }

// finish derives other_s and the per-call percentiles and records
// trace_overhead_frac. top are the layer times that partition a traced pass.
func (p *probe) finish(top []string, tracedWall time.Duration, overhead float64) {
	other := tracedWall
	for _, n := range top {
		other -= p.sums[n]
	}
	p.derived = append(p.derived,
		metric{"other_s", other.Seconds(), "s"},
		metric{"trace_overhead_frac", overhead, "ratio"})
	for name, ds := range p.samples {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		p99 := ds[int(0.99*float64(len(ds)-1))]
		p.derived = append(p.derived, metric{name + "_p99_us", float64(p99.Nanoseconds()) / 1e3, "us"})
	}
}

// metrics lists every layer time, count and derived value.
func (p *probe) metrics() []metric {
	var ms []metric
	for n, d := range p.sums {
		ms = append(ms, metric{n, d.Seconds(), "s"})
	}
	for n, v := range p.counts {
		ms = append(ms, metric{n, v, unitOf(n)})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return append(ms, p.derived...)
}

// accumulator collects a workload's op counts, failed checks and the
// digest and latency histogram of its virtual outputs.
type accumulator struct {
	ops, failed int
	problems    []string
	dig         digest
	lat         *latHist
}

func newAccumulator() accumulator { return accumulator{dig: newDigest(), lat: newLatHist()} }

// fail counts one failed op and keeps the first few reasons.
func (a *accumulator) fail(format string, args ...any) {
	a.failed++
	if len(a.problems) < 5 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func (a *accumulator) outcome(virtual ...metric) outcome {
	return outcome{ops: a.ops, failed: a.failed, virtual: virtual, digest: a.dig, problems: a.problems}
}

// digest is an FNV-1a hash over 64-bit words of virtual output.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		for i := 0; i < 64; i += 8 {
			*d ^= digest(byte(uint64(v) >> i))
			*d *= 1099511628211
		}
	}
}

func (d *digest) addFloat(f float64) { d.add(int64(f * 1e9)) }

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// latHist is an exact histogram of virtual latencies at microsecond
// resolution, so percentiles over millions of records need no sample array.
type latHist struct {
	counts map[int64]int64
	n      int64
}

func newLatHist() *latHist { return &latHist{counts: map[int64]int64{}} }

func (h *latHist) add(d simtime.Duration) {
	h.counts[int64(d/simtime.Microsecond)]++
	h.n++
}

// ms returns the p-th percentile in milliseconds by the nearest-rank rule
// internal/stats uses: index p/100*(n-1) of the sorted values.
func (h *latHist) ms(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := int64(p / 100 * float64(h.n-1))
	for _, k := range keys {
		if rank < h.counts[k] {
			return float64(k) / 1e3
		}
		rank -= h.counts[k]
	}
	return float64(keys[len(keys)-1]) / 1e3
}

// mix hashes its arguments into one seed (splitmix64 finalizer per word), so
// that every (seed, pass, op) triple gets its own input seed.
func mix(xs ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= uint64(x)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1) // non-negative
}

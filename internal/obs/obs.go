// Package obs is the platform's flight recorder: a virtual-time time-series
// store layered on the telemetry registry, plus per-function tier-residency
// timelines and a DAMON-accuracy audit.
//
// The recorder never reads the wall clock. Its clock is the simulation's
// virtual time, which only the platform advances (Recorder.Advance), by
// each finished invocation's virtual duration; no scheduler or experiment
// drives it. Every registered
// telemetry.Metrics instrument is sampled exactly on interval boundaries of
// that virtual clock, so two same-seed runs produce byte-identical series —
// the property the exporters' golden tests enforce.
//
// Three views come out of one Recorder:
//
//   - Sampled series (counters, gauge levels, histogram count/sum/max) in a
//     ring-buffered store, exported as Prometheus text, CSV, or JSON.
//   - Tier-residency timelines: which guest regions sat in mem.Fast vs
//     mem.Slow, when placements changed (restore, convergence, re-profiling),
//     and the demand-fault latency attributed to each tier. Fed through
//     microvm.Config.Recorder: machines report restores and fault stalls,
//     the core controller its phase transitions and convergences, and the
//     platform its degraded serves.
//   - DAMON-accuracy audits: per profiling invocation, DAMON's estimated
//     heat joined against the wstrack-style ground-truth access counts,
//     scored by rank correlation and hot/cold misclassification.
//
// A nil *Recorder is the disabled recorder: every method no-ops after one
// pointer comparison, mirroring the telemetry package's nil idiom.
package obs

import (
	"sort"
	"strings"
	"sync"

	"toss/internal/access"
	"toss/internal/damon"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
	"toss/internal/telemetry"
)

// Derived series the recorder registers in the telemetry registry, so
// residency and audit signals ride the same sampling cadence as the
// platform's own instruments. All are labeled with telemetry.Labeled.
const (
	// MetricFastShare is a per-function gauge of the current placement's
	// fast-tier share, in parts per million (integer instruments only).
	MetricFastShare = "obs.fast_share_ppm"
	// MetricSlowPages is a per-function gauge of slow-tier pages.
	MetricSlowPages = "obs.resident_slow_pages"
	// MetricRestores counts machine restores per function and setup kind.
	MetricRestores = "obs.restores"
	// MetricFaults counts demand faults per function and serving tier.
	MetricFaults = "obs.faults"
	// MetricFaultCost accumulates demand-fault stall time per function and
	// serving tier, in virtual nanoseconds.
	MetricFaultCost = "obs.fault_cost_ns"
	// MetricPhaseTransitions counts controller phase transitions.
	MetricPhaseTransitions = "obs.phase_transitions"
	// MetricAudits counts DAMON-accuracy audits per function.
	MetricAudits = "obs.damon_audits"
	// MetricRankCorr is the latest audit's Spearman rank correlation, ppm.
	MetricRankCorr = "obs.damon_rank_corr_ppm"
	// MetricHotAsCold / MetricColdAsHot are the latest audit's
	// misclassification rates, ppm.
	MetricHotAsCold = "obs.damon_hot_as_cold_ppm"
	MetricColdAsHot = "obs.damon_cold_as_hot_ppm"
)

// DefaultInterval is the sampling cadence of a Config with no Interval.
const DefaultInterval = 100 * simtime.Millisecond

// Capacity bounds each ring-buffered series, each residency timeline and
// the audit log; the oldest entries fall off.
const Capacity = 4096

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the virtual-time sampling cadence. Samples land exactly
	// on interval boundaries (0, Interval, 2*Interval, ...), never between,
	// so the series a run produces depend only on the run's virtual
	// timeline. <= 0 uses DefaultInterval.
	Interval simtime.Duration
	// Metrics is the registry sampled on every boundary. The recorder also
	// registers its derived residency/fault/audit instruments here. A nil
	// registry records timelines and audits only.
	Metrics *telemetry.Metrics
}

// Recorder is the flight recorder. All state sits behind one mutex; the
// callback paths are cheap (map lookup plus cached instrument updates), and
// deterministic output needs serialized invocations anyway.
type Recorder struct {
	mu        sync.Mutex
	cfg       Config
	now       simtime.Duration // high-water mark of observed virtual time
	next      simtime.Duration // next sampling boundary
	series    map[string]*series
	timelines map[string]*timeline
	audits    []AuditResult
}

// New returns an enabled recorder. Use a nil *Recorder for the disabled one.
func New(cfg Config) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	return &Recorder{
		cfg:       cfg,
		series:    make(map[string]*series),
		timelines: make(map[string]*timeline),
	}
}

// Point is one sample of one series on the virtual-time axis.
type Point struct {
	T simtime.Duration
	V int64
}

// series is a ring buffer of at most Capacity points; start indexes the
// oldest once it is full.
type series struct {
	points []Point
	start  int
}

func (s *series) append(p Point) {
	if len(s.points) < Capacity {
		s.points = append(s.points, p)
		return
	}
	s.points[s.start] = p
	s.start = (s.start + 1) % Capacity
}

// linear returns the points oldest-first.
func (s *series) linear() []Point {
	out := make([]Point, 0, len(s.points))
	out = append(out, s.points[s.start:]...)
	out = append(out, s.points[:s.start]...)
	return out
}

// TierEvent is one entry of a function's tier-residency timeline: a restore,
// a placement change, or a controller phase transition, at a point in global
// virtual time.
type TierEvent struct {
	At simtime.Duration
	// Cause tags the source: "restore:<kind>", "placement:<cause>", or
	// "phase:<from>-><to>".
	Cause string
	// SlowPages/TotalPages describe the placement in force at this point;
	// Slow lists its slow-tier regions (shared — do not mutate).
	SlowPages, TotalPages int64
	Slow                  []guest.Region
}

// FastShare returns the event placement's fast-tier fraction (0 when the
// guest size is unknown).
func (e TierEvent) FastShare() float64 {
	if e.TotalPages <= 0 {
		return 0
	}
	return 1 - float64(e.SlowPages)/float64(e.TotalPages)
}

// tierNames labels a machine's two tiers, by level, the way the memory
// model names them.
var tierNames = [2]string{mem.Fast: "fast", mem.Slow: "slow"}

// timeline is one function's residency history plus cached derived
// instruments, so the hot fault path never re-formats label strings.
type timeline struct {
	events    []TierEvent
	restores  int64
	faults    [2]int64
	faultCost [2]simtime.Duration

	faultCtr     [2]*telemetry.Counter
	faultCostCtr [2]*telemetry.Counter
	slowGauge    *telemetry.Gauge
	shareGauge   *telemetry.Gauge
	restoreCtrs  map[string]*telemetry.Counter
	phaseCtr     *telemetry.Counter
}

// fnName maps an empty machine label to a stable placeholder.
func fnName(label string) string {
	if label == "" {
		return "unlabeled"
	}
	return label
}

// timelineLocked returns (creating if needed) fn's timeline. r.mu held.
func (r *Recorder) timelineLocked(fn string) *timeline {
	tl, ok := r.timelines[fn]
	if !ok {
		m := r.cfg.Metrics
		tl = &timeline{
			slowGauge:   m.Gauge(telemetry.Labeled(MetricSlowPages, "fn", fn)),
			shareGauge:  m.Gauge(telemetry.Labeled(MetricFastShare, "fn", fn)),
			phaseCtr:    m.Counter(telemetry.Labeled(MetricPhaseTransitions, "fn", fn)),
			restoreCtrs: make(map[string]*telemetry.Counter),
		}
		for level, tier := range tierNames {
			tl.faultCtr[level] = m.Counter(telemetry.Labeled(MetricFaults, "fn", fn, "tier", tier))
			tl.faultCostCtr[level] = m.Counter(telemetry.Labeled(MetricFaultCost, "fn", fn, "tier", tier))
		}
		r.timelines[fn] = tl
	}
	return tl
}

func (tl *timeline) last() *TierEvent {
	if len(tl.events) == 0 {
		return nil
	}
	return &tl.events[len(tl.events)-1]
}

func (tl *timeline) appendEvent(e TierEvent) {
	if len(tl.events) >= Capacity {
		copy(tl.events, tl.events[1:])
		tl.events[len(tl.events)-1] = e
		return
	}
	tl.events = append(tl.events, e)
}

func regionsEqual(a, b []guest.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Advance moves the virtual clock forward by d — the accumulation the
// platform uses, where each invocation contributes its virtual duration.
func (r *Recorder) Advance(d simtime.Duration) {
	if r == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	r.advanceToLocked(r.now + d)
	r.mu.Unlock()
}

func (r *Recorder) advanceToLocked(now simtime.Duration) {
	if now > r.now {
		r.now = now
	}
	for r.next <= r.now {
		r.sampleLocked(r.next)
		r.next += r.cfg.Interval
	}
}

// sampleLocked takes one sample of every instrument at boundary time at.
// Histograms contribute three derived series: .count, .sum, and .max.
func (r *Recorder) sampleLocked(at simtime.Duration) {
	r.cfg.Metrics.Each(func(name string, kind telemetry.Kind, s telemetry.Sample) {
		switch kind {
		case telemetry.KindCounter, telemetry.KindGauge:
			r.seriesLocked(name).append(Point{at, s.Value})
		case telemetry.KindHistogram:
			r.seriesLocked(suffixed(name, ".count")).append(Point{at, s.Count})
			r.seriesLocked(suffixed(name, ".sum")).append(Point{at, s.Sum})
			r.seriesLocked(suffixed(name, ".max")).append(Point{at, s.Max})
		}
	})
}

func (r *Recorder) seriesLocked(name string) *series {
	s, ok := r.series[name]
	if !ok {
		s = &series{}
		r.series[name] = s
	}
	return s
}

// suffixed inserts a suffix before a telemetry.Labeled label block, so
// "h{fn=\"x\"}" + ".sum" becomes "h.sum{fn=\"x\"}".
func suffixed(name, sfx string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + sfx + name[i:]
	}
	return name + sfx
}

// ppm converts a fraction in [-1, 1] to integer parts per million.
func ppm(f float64) int64 {
	if f < 0 {
		return -int64(-f*1e6 + 0.5)
	}
	return int64(f*1e6 + 0.5)
}

// ObservePlacement records fn's current page placement (slow-tier regions
// out of totalPages guest pages) with a cause tag, updating the residency
// gauges and appending a timeline event if the placement changed.
func (r *Recorder) ObservePlacement(fn string, slow []guest.Region, totalPages int64, cause string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(r.timelineLocked(fnName(fn)), "placement:"+cause, slow, totalPages)
}

// observeLocked updates tl's residency state. r.mu held.
func (r *Recorder) observeLocked(tl *timeline, cause string, slow []guest.Region, totalPages int64) {
	slowPages := guest.TotalPages(slow)
	last := tl.last()
	if last == nil || last.SlowPages != slowPages || last.TotalPages != totalPages ||
		!regionsEqual(last.Slow, slow) {
		tl.appendEvent(TierEvent{
			At: r.now, Cause: cause,
			SlowPages: slowPages, TotalPages: totalPages, Slow: slow,
		})
	}
	tl.slowGauge.Set(slowPages)
	if totalPages > 0 {
		tl.shareGauge.Set(ppm(1 - float64(slowPages)/float64(totalPages)))
	}
}

// ObservePhase records a controller phase transition for fn. The event
// carries the last known placement forward so heatmaps can shade through it.
func (r *Recorder) ObservePhase(fn, from, to string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl := r.timelineLocked(fnName(fn))
	ev := TierEvent{At: r.now, Cause: "phase:" + from + "->" + to}
	if last := tl.last(); last != nil {
		ev.SlowPages, ev.TotalPages, ev.Slow = last.SlowPages, last.TotalPages, last.Slow
	}
	tl.appendEvent(ev)
	tl.phaseCtr.Add(1)
}

// MachineRestored records a machine run's restore, reported once per run
// before its first event executes: kind names the setup flavor ("boot",
// "restore-lazy", "restore-reap", "restore-tiered", or "resident"), and slow
// lists the slow-tier regions of the machine's placement (the timeline keeps
// it, so the caller must not mutate it).
func (r *Recorder) MachineRestored(label, kind string, slow []guest.Region, totalPages int64) {
	if r == nil {
		return
	}
	fn := fnName(label)
	r.mu.Lock()
	defer r.mu.Unlock()
	tl := r.timelineLocked(fn)
	tl.restores++
	ctr, ok := tl.restoreCtrs[kind]
	if !ok {
		ctr = r.cfg.Metrics.Counter(telemetry.Labeled(MetricRestores, "fn", fn, "kind", kind))
		tl.restoreCtrs[kind] = ctr
	}
	ctr.Add(1)
	r.observeLocked(tl, "restore:"+kind, slow, totalPages)
}

// FaultStall attributes one demand-fault burst's stall cost to the tier
// level (mem.Fast or mem.Slow) that served it.
func (r *Recorder) FaultStall(label string, level int, major, minor int64, cost simtime.Duration) {
	if r == nil {
		return
	}
	if level != mem.Fast && level != mem.Slow {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl := r.timelineLocked(fnName(label))
	tl.faults[level] += major + minor
	tl.faultCost[level] += cost
	tl.faultCtr[level].Add(major + minor)
	tl.faultCostCtr[level].Add(cost.Nanoseconds())
}

// AuditDAMON scores one profiling invocation's DAMON pattern against the
// ground-truth access counts (one audit per sample window) and folds the
// result into the derived audit series.
func (r *Recorder) AuditDAMON(fn string, seq int, p damon.Pattern, truth *access.Histogram) {
	if r == nil {
		return
	}
	name := fnName(fn)
	res := Audit(p, truth)
	res.Function, res.Seq = name, seq
	r.mu.Lock()
	defer r.mu.Unlock()
	res.At = r.now
	if len(r.audits) >= Capacity {
		copy(r.audits, r.audits[1:])
		r.audits[len(r.audits)-1] = res
	} else {
		r.audits = append(r.audits, res)
	}
	m := r.cfg.Metrics
	m.Counter(telemetry.Labeled(MetricAudits, "fn", name)).Add(1)
	m.Gauge(telemetry.Labeled(MetricRankCorr, "fn", name)).Set(ppm(res.RankCorrelation))
	m.Gauge(telemetry.Labeled(MetricHotAsCold, "fn", name)).Set(ppm(res.HotMissRate()))
	m.Gauge(telemetry.Labeled(MetricColdAsHot, "fn", name)).Set(ppm(res.ColdMissRate()))
}

// Metrics returns the registry the recorder samples (nil for the disabled
// recorder).
func (r *Recorder) Metrics() *telemetry.Metrics {
	if r == nil {
		return nil
	}
	return r.cfg.Metrics
}

// SeriesData is one exported time series.
type SeriesData struct {
	Name   string
	Points []Point
}

// TimelineData is one exported residency timeline.
type TimelineData struct {
	Function  string
	Events    []TierEvent
	Restores  int64
	Faults    [2]int64
	FaultCost [2]simtime.Duration
}

// Snapshot is a lock-free copy of the recorder's state, the input to the
// exporters and heatmap renderers. Series and timelines come sorted by name.
type Snapshot struct {
	Now       simtime.Duration
	Interval  simtime.Duration
	Series    []SeriesData
	Timelines []TimelineData
	Audits    []AuditResult
}

// Snapshot copies the recorder's state. Safe on a nil recorder (empty
// snapshot).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Now: r.now, Interval: r.cfg.Interval}
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Series = append(snap.Series, SeriesData{Name: n, Points: r.series[n].linear()})
	}
	fns := make([]string, 0, len(r.timelines))
	for n := range r.timelines {
		fns = append(fns, n)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		tl := r.timelines[fn]
		snap.Timelines = append(snap.Timelines, TimelineData{
			Function:  fn,
			Events:    append([]TierEvent(nil), tl.events...),
			Restores:  tl.restores,
			Faults:    tl.faults,
			FaultCost: tl.faultCost,
		})
	}
	snap.Audits = append(snap.Audits, r.audits...)
	return snap
}

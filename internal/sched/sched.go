// Package sched is a deterministic discrete-event simulator of a serverless
// host: a fixed pool of cores serves an arrival trace, each invocation
// restores its function through a snapshot mechanism (TOSS, REAP, or plain
// DRAM lazy restore), and two optional orthogonal mechanisms from §VI-A —
// keep-alive caching of warm VMs on both tiers and prediction-driven
// pre-warming — cut cold starts.
//
// Unlike package platform (real goroutines, approximate timing), sched runs
// entirely in virtual time: arrivals, completions, and pre-warm timers are
// events in a priority queue, queueing delay is explicit, and results are
// bit-for-bit reproducible. It exists to answer the capacity questions the
// paper leaves to "serverless providers": end-to-end latency distributions,
// cold-start fractions, and memory occupancy under realistic traffic.
package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/keepalive"
	"toss/internal/predict"
	"toss/internal/simtime"
	"toss/internal/telemetry"
	"toss/internal/trace"
	"toss/internal/xray"
)

// Mechanism selects the snapshot system serving a function.
type Mechanism int

const (
	// MechTOSS serves via the TOSS controller (profiling then tiered).
	MechTOSS Mechanism = iota
	// MechREAP serves via REAP working-set prefetching.
	MechREAP
	// MechDRAM serves via plain lazy restore, all in DRAM.
	MechDRAM
	// MechFaaSnap serves via FaaSnap's mincore-inflated working sets.
	MechFaaSnap
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case MechTOSS:
		return "toss"
	case MechREAP:
		return "reap"
	case MechDRAM:
		return "dram"
	case MechFaaSnap:
		return "faasnap"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Config describes the simulated host.
type Config struct {
	// Cores is the number of invocation slots (the paper's server has 20).
	Cores int
	// Core configures the snapshot machinery.
	Core core.Config
	// Mechanism applies to every registered function.
	Mechanism Mechanism
	// KeepAliveFastBytes/KeepAliveSlowBytes, when positive, enable the
	// keep-alive cache with those per-tier capacities.
	KeepAliveFastBytes int64
	KeepAliveSlowBytes int64
	// ResumeCost is the cost of resuming a kept-alive (paused) VM.
	ResumeCost simtime.Duration
	// KeepAliveTTL, when positive, expires idle warm VMs after this much
	// virtual time without an invocation (a platform idle timeout on top
	// of the greedy-dual capacity eviction).
	KeepAliveTTL simtime.Duration
	// Prewarm enables prediction-driven pre-warming (requires keep-alive).
	Prewarm bool
	// Predictor tunes the pre-warming predictor.
	Predictor predict.Config
}

// DefaultConfig mirrors the paper's host: 20 cores, no keep-alive.
func DefaultConfig() Config {
	c := core.DefaultConfig()
	c.ConvergenceWindow = 12
	return Config{
		Cores:      20,
		Core:       c,
		Mechanism:  MechTOSS,
		ResumeCost: 500 * simtime.Microsecond,
		Predictor:  predict.DefaultConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sched: Cores %d < 1", c.Cores)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.KeepAliveFastBytes < 0 || c.KeepAliveSlowBytes < 0 {
		return fmt.Errorf("sched: negative keep-alive capacity")
	}
	if c.ResumeCost < 0 {
		return fmt.Errorf("sched: negative resume cost")
	}
	if c.KeepAliveTTL < 0 {
		return fmt.Errorf("sched: negative keep-alive TTL")
	}
	if c.Prewarm && c.KeepAliveFastBytes == 0 && c.KeepAliveSlowBytes == 0 {
		return fmt.Errorf("sched: pre-warming requires a keep-alive cache")
	}
	return nil
}

// StartKind classifies how an invocation obtained its VM.
type StartKind int

const (
	// ColdStart restored a snapshot from storage.
	ColdStart StartKind = iota
	// WarmStart resumed a kept-alive VM.
	WarmStart
	// PrewarmedStart hit a VM restored ahead of the predicted arrival.
	PrewarmedStart
)

// String names the start kind.
func (k StartKind) String() string {
	switch k {
	case ColdStart:
		return "cold"
	case WarmStart:
		return "warm"
	case PrewarmedStart:
		return "prewarmed"
	default:
		return fmt.Sprintf("StartKind(%d)", int(k))
	}
}

// Record is the outcome of one simulated invocation.
type Record struct {
	Function string
	Arrival  simtime.Duration
	// QueueDelay is time spent waiting for a core.
	QueueDelay simtime.Duration
	Setup      simtime.Duration
	Exec       simtime.Duration
	Start      StartKind
	// XRay is the invocation's scheduler-level attribution budget (nil
	// unless the core config has an XRay collector): queue wait, setup as
	// one opaque span (resume for warm starts), and execution — summing
	// exactly to Latency(). Machine-level budgets carry the fine-grained
	// restore/exec decomposition under their own labels.
	XRay *xray.Budget
}

// Latency is the end-to-end response time.
func (r Record) Latency() simtime.Duration { return r.QueueDelay + r.Setup + r.Exec }

// Report aggregates a simulation run.
type Report struct {
	Records []Record
	// Horizon is the completion time of the last invocation.
	Horizon simtime.Duration
	// PrewarmsIssued and PrewarmsWasted count pre-warm restores and the
	// ones evicted or expired unused.
	PrewarmsIssued int64
	PrewarmsWasted int64
	// CacheStats is the keep-alive cache outcome (zero without a cache).
	CacheStats keepalive.Stats
	// BusyCoreTime accumulates core-seconds of real work.
	BusyCoreTime simtime.Duration
	// Expirations counts idle-TTL keep-alive expiries.
	Expirations int64
	// Storms counts injected keep-alive eviction storms (full cache
	// flushes); DegradedServes counts invocations served through a
	// degradation policy after an injected fault; BreakerTrips counts
	// closed→open circuit-breaker transitions. All zero without a fault
	// plan (see FAULTS.md).
	Storms         int64
	DegradedServes int64
	BreakerTrips   int64
}

// ColdFraction returns the fraction of invocations that cold-started.
func (r *Report) ColdFraction() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	cold := 0
	for _, rec := range r.Records {
		if rec.Start == ColdStart {
			cold++
		}
	}
	return float64(cold) / float64(len(r.Records))
}

// LatencyPercentile returns the p-th percentile end-to-end latency.
func (r *Report) LatencyPercentile(p float64) simtime.Duration {
	if len(r.Records) == 0 {
		return 0
	}
	ls := make([]simtime.Duration, len(r.Records))
	for i, rec := range r.Records {
		ls[i] = rec.Latency()
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	idx := int(p / 100 * float64(len(ls)-1))
	return ls[idx]
}

// MeanLatency returns the average end-to-end latency.
func (r *Report) MeanLatency() simtime.Duration {
	if len(r.Records) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, rec := range r.Records {
		sum += rec.Latency()
	}
	return sum / simtime.Duration(len(r.Records))
}

// Utilization returns busy core-time over total core-time.
func (r *Report) Utilization(cores int) float64 {
	if r.Horizon <= 0 || cores < 1 {
		return 0
	}
	return float64(r.BusyCoreTime) / (float64(r.Horizon) * float64(cores))
}

// event is one entry in the simulator's priority queue.
type event struct {
	at   simtime.Duration
	kind eventKind
	seq  int64 // tie-breaker for determinism
	// arrival payload
	arr trace.Arrival
	// prewarm payload
	fn     string
	expire simtime.Duration
}

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evPrewarm
)

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// Sim is one simulation instance.
type Sim struct {
	cfg   Config
	mechs map[string]mechanism
	cache *keepalive.Cache
	pred  *predict.Predictor

	queue   eventQueue
	seq     int64
	now     simtime.Duration
	free    int
	waiting []trace.Arrival // FIFO queue for cores

	report Report
	// prewarmed tracks functions currently cached due to a pre-warm that
	// has not yet been used.
	prewarmed map[string]bool
	// lastColdSetup remembers each function's latest cold setup (the
	// keep-alive "cost" term).
	lastColdSetup map[string]simtime.Duration
	// lastWarmAt remembers when each cached VM was last touched, for the
	// idle-TTL expiry.
	lastWarmAt map[string]simtime.Duration
	// expirations counts idle-TTL expiries.
	expirations int64

	// breaker circuit-breaks keep-alive admission per function under fault
	// injection (nil without a fault plan; nil is always-closed).
	breaker *fault.Breaker
}

// met returns the metrics registry (nil when the config has none attached).
func (s *Sim) met() *telemetry.Metrics { return s.cfg.Core.VM.Metrics }

// New builds a simulator for the given functions.
func New(cfg Config, functions []string) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:           cfg,
		mechs:         make(map[string]mechanism),
		free:          cfg.Cores,
		prewarmed:     make(map[string]bool),
		lastColdSetup: make(map[string]simtime.Duration),
		lastWarmAt:    make(map[string]simtime.Duration),
	}
	for _, fn := range functions {
		m, err := newMechanism(cfg, fn)
		if err != nil {
			return nil, err
		}
		s.mechs[fn] = m
	}
	if cfg.KeepAliveFastBytes > 0 || cfg.KeepAliveSlowBytes > 0 {
		cache, err := keepalive.New(cfg.KeepAliveFastBytes, cfg.KeepAliveSlowBytes, cfg.Core.Cost)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	}
	if cfg.Prewarm {
		s.pred = predict.New(cfg.Predictor)
	}
	if cfg.Core.VM.Faults != nil {
		s.breaker = fault.NewBreaker(fault.DefaultBreakerConfig())
	}
	return s, nil
}

// Run replays the arrival trace to completion and returns the report.
func (s *Sim) Run(arrivals []trace.Arrival) (*Report, error) {
	for _, a := range arrivals {
		if _, ok := s.mechs[a.Function]; !ok {
			return nil, fmt.Errorf("sched: arrival for unregistered function %q", a.Function)
		}
		s.push(&event{at: a.At, kind: evArrival, arr: a})
	}
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		switch e.kind {
		case evArrival:
			if err := s.onArrival(e.arr); err != nil {
				return nil, err
			}
		case evCompletion:
			s.free++
			s.drainQueue()
		case evPrewarm:
			if err := s.onPrewarm(e.fn, e.expire); err != nil {
				return nil, err
			}
		}
		if s.now > s.report.Horizon {
			s.report.Horizon = s.now
		}
	}
	if s.cache != nil {
		s.report.CacheStats = s.cache.Stats()
		s.report.Expirations = s.expirations
		// Pre-warmed VMs never consumed are waste.
		for range s.prewarmed {
			s.report.PrewarmsWasted++
		}
	}
	if s.breaker != nil {
		s.report.BreakerTrips = s.breaker.Trips()
		if met := s.met(); met != nil && s.report.BreakerTrips > 0 {
			met.Counter(telemetry.MetricBreakerTrips).Add(s.report.BreakerTrips)
		}
	}
	return &s.report, nil
}

func (s *Sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
}

// onArrival queues or dispatches an invocation.
func (s *Sim) onArrival(a trace.Arrival) error {
	// An injected eviction storm (fault.SiteEvictStorm) flushes the whole
	// keep-alive cache — a host OOM kill or capacity reclaim — so this and
	// every following arrival cold-starts until the cache refills.
	if inj := s.cfg.Core.VM.Faults; inj != nil && s.cache != nil {
		if _, fired := inj.At(fault.SiteEvictStorm, a.Function, s.now); fired {
			for _, fn := range s.cache.Flush() {
				if s.prewarmed[fn] {
					delete(s.prewarmed, fn)
					s.report.PrewarmsWasted++
				}
			}
			s.report.Storms++
			if met := s.met(); met != nil {
				met.Counter(telemetry.MetricEvictStorms).Add(1)
			}
		}
	}
	if s.pred != nil {
		s.observeAndSchedulePrewarm(a)
	}
	if s.free == 0 {
		s.waiting = append(s.waiting, a)
		if met := s.met(); met != nil {
			met.Gauge(telemetry.MetricQueueDepth).Set(int64(len(s.waiting)))
		}
		return nil
	}
	return s.dispatch(a, s.now)
}

// drainQueue dispatches waiting arrivals onto freed cores.
func (s *Sim) drainQueue() {
	for s.free > 0 && len(s.waiting) > 0 {
		a := s.waiting[0]
		s.waiting = s.waiting[1:]
		if err := s.dispatch(a, a.At); err != nil {
			// Dispatch errors are programming errors; surface loudly.
			panic(err)
		}
	}
}

// dispatch runs one invocation starting now.
func (s *Sim) dispatch(a trace.Arrival, arrivedAt simtime.Duration) error {
	s.free--
	conc := s.cfg.Cores - s.free
	mech := s.mechs[a.Function]

	kind := ColdStart
	var setup, exec simtime.Duration
	var faulted bool
	if s.cache != nil {
		s.expireIfIdle(a.Function)
		if _, hit := s.cache.Take(a.Function); hit {
			kind = WarmStart
			if s.prewarmed[a.Function] {
				kind = PrewarmedStart
				delete(s.prewarmed, a.Function)
			}
			e, f, err := mech.invokeWarm(a, conc)
			if err != nil {
				return err
			}
			setup, exec, faulted = s.cfg.ResumeCost, e, f
		}
	}
	if kind == ColdStart {
		st, e, f, err := mech.invokeCold(a, conc)
		if err != nil {
			return err
		}
		setup, exec, faulted = st, e, f
		s.lastColdSetup[a.Function] = st
	}
	if faulted {
		s.report.DegradedServes++
	}
	s.breaker.Record(a.Function, faulted)

	finish := s.now + setup + exec
	s.report.BusyCoreTime += setup + exec
	rec := Record{
		Function:   a.Function,
		Arrival:    arrivedAt,
		QueueDelay: s.now - arrivedAt,
		Setup:      setup,
		Exec:       exec,
		Start:      kind,
	}
	if xr := s.cfg.Core.VM.XRay; xr != nil {
		// The "/sched" label suffix keeps scheduler-level budgets apart
		// from the machine-level ones the mechanisms observe for the same
		// function (same convention as core's "/binprof" labels).
		bud := xray.New(a.Function + "/sched")
		bud.Add(xray.SegQueueWait, rec.QueueDelay)
		if kind == ColdStart {
			bud.Add(xray.SegSchedSetup, setup)
		} else {
			bud.Add(xray.SegResume, setup)
		}
		bud.Add(xray.SegSchedExec, exec)
		bud.Mark("start."+kind.String(), 1)
		bud.Seal(rec.Latency())
		rec.XRay = bud
		xr.Observe(bud)
	}
	s.report.Records = append(s.report.Records, rec)
	s.push(&event{at: finish, kind: evCompletion})

	if met := s.met(); met != nil {
		switch kind {
		case ColdStart:
			met.Counter(telemetry.MetricColdStarts).Add(1)
		case WarmStart:
			met.Counter(telemetry.MetricWarmStarts).Add(1)
		case PrewarmedStart:
			met.Counter(telemetry.MetricPrewarmHits).Add(1)
		}
		met.Histogram(telemetry.MetricQueueDelay, telemetry.LatencyBuckets()).
			Observe((s.now - arrivedAt).Nanoseconds())
		met.Counter(telemetry.MetricBusyCoreTime).Add((setup + exec).Nanoseconds())
		met.Gauge(telemetry.MetricFreeCores).Set(int64(s.free))
		met.Gauge(telemetry.MetricQueueDepth).Set(int64(len(s.waiting)))
	}

	// Keep the finished VM alive on both tiers until evicted (§VI-A) —
	// unless the function's circuit breaker is open: a function whose
	// restore path keeps faulting does not get its (possibly poisoned)
	// warm VM cached until a half-open trial succeeds.
	if s.cache != nil {
		if s.breaker.Allow(a.Function) {
			fast, slow := mech.footprint()
			cold := s.lastColdSetup[a.Function]
			if cold == 0 {
				cold = setup
			}
			item := keepalive.ItemFor(a.Function, fast, slow, cold)
			s.lastWarmAt[a.Function] = finish
			evicted, _ := s.cache.Admit(item)
			for _, fn := range evicted {
				if s.prewarmed[fn] {
					delete(s.prewarmed, fn)
					s.report.PrewarmsWasted++
				}
			}
		} else {
			rec.XRay.Mark(xray.MarkBreakerVeto, 1)
		}
	}
	return nil
}

// observeAndSchedulePrewarm feeds the predictor and schedules a pre-warm
// restore for the predicted next arrival.
func (s *Sim) observeAndSchedulePrewarm(a trace.Arrival) {
	s.pred.Observe(a.Function, a.At)
	pred, ok := s.pred.Next(a.Function)
	if !ok {
		return
	}
	at := pred.WindowStart
	if at <= s.now {
		at = s.now + 1
	}
	s.push(&event{at: at, kind: evPrewarm, fn: a.Function, expire: pred.WindowEnd})
}

// onPrewarm restores a VM ahead of the predicted arrival and parks it in
// the cache. The restore happens off the worker cores (Firecracker restores
// are I/O-bound and the paper's pre-warming idea assumes background load).
func (s *Sim) onPrewarm(fn string, expire simtime.Duration) error {
	if s.cache == nil {
		return nil
	}
	s.expireIfIdle(fn)
	if s.cache.Contains(fn) {
		return nil
	}
	if expire <= s.now {
		return nil
	}
	mech := s.mechs[fn]
	setup, err := mech.prewarm()
	if err != nil {
		return err
	}
	_ = setup // background restore: priced but not occupying a core
	s.report.PrewarmsIssued++
	fast, slow := mech.footprint()
	cold := s.lastColdSetup[fn]
	if cold == 0 {
		cold = setup
	}
	if _, ok := s.cache.Admit(keepalive.ItemFor(fn, fast, slow, cold)); ok {
		s.prewarmed[fn] = true
		s.lastWarmAt[fn] = s.now
	} else {
		s.report.PrewarmsWasted++
	}
	return nil
}

// expireIfIdle enforces the idle TTL on one function's cached VM.
func (s *Sim) expireIfIdle(fn string) {
	if s.cfg.KeepAliveTTL <= 0 {
		return
	}
	last, ok := s.lastWarmAt[fn]
	if !ok || s.now-last <= s.cfg.KeepAliveTTL {
		return
	}
	if s.cache.Drop(fn) {
		s.expirations++
		if s.prewarmed[fn] {
			delete(s.prewarmed, fn)
			s.report.PrewarmsWasted++
		}
	}
}

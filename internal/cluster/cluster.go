// Package cluster simulates a fleet of tiered serverless hosts behind a
// front-end router and a virtual-time autoscaler — the fleet layer above
// the single-host simulator. Each node owns its own cores, tier capacities,
// keep-alive cache, and local snapshot store; invocation costs come from
// per-function profiles measured once through a platform.Function (the
// mechanism the platform and the single-host simulator serve through, fault
// policy included), so fleet-scale runs stay cheap, deterministic, and
// anchored to the paper's model.
//
// The cluster-level question mirrors TOSS's page-level one: restore latency
// is dominated by where snapshot state already lives, so the router's
// snapshot-affinity policy (rendezvous hashing) is page tiering writ large —
// steer each function to the nodes whose disks and warm caches already hold
// it, and cold starts shrink without any per-node change.
//
// A run has one way in, RunStream over a workload.Source, and one record
// out, the Report. With Config.Trace on, the event loop also writes the
// run's decision trace into Report.Trace (routing decisions with their
// candidate rankings, node-grid samples, per-node latencies); the
// autoscaler's actions are Report.ScaleEvents either way. internal/fleetobs
// renders a finished report; this package imports no observer.
//
// The event core is built for million-invocation scale: the hot path —
// take the next event, route, dispatch, record — performs no steady-state
// heap allocation. Arrivals stream from a pull-based workload.Source, so a
// day-long trace never materializes: a producer goroutine pulls the source,
// checks time order and interns function names on a second core, and hands
// the loop recycled batches of arrivals; the next arrival waits beside the
// event heap rather than in it. Completions and autoscaler ticks live by
// value in a slice-backed 4-ary heap; per-invocation outcomes go to a
// five-column log (Records) in fixed-size chunks that also notes completion
// order, which readers walk by index; function and node names are interned
// to dense ids at construction; each node's keep-alive cache is a short
// value slice; and the routable set and per-function rendezvous rankings
// are cached between topology changes. BenchmarkClusterRun pins the
// budget: >=1M invocations simulated in <5s at <=2 amortized allocations
// per invocation.
package cluster

import (
	"fmt"
	"sort"

	"toss/internal/costmodel"
	"toss/internal/fleet"
	"toss/internal/keepalive"
	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// Config describes the simulated fleet.
type Config struct {
	// Hosts are the initial nodes' per-tier capacities, one entry per node
	// (use fleet.HostSpec.Hosts for a homogeneous fleet). The autoscaler
	// clones specs from this list round-robin when it grows the fleet.
	Hosts []fleet.HostSpec
	// Cores is the number of invocation slots per node.
	Cores int
	// DiskBytes is each node's local snapshot-store capacity; snapshots
	// evict LRU when it fills.
	DiskBytes int64
	// PullBytesPerSec is the bandwidth for fetching a snapshot onto a
	// node that does not hold it locally (charged on the cold path).
	PullBytesPerSec int64
	// ResumeCost is the cost of resuming a kept-alive VM (as in sched).
	ResumeCost simtime.Duration
	// Router selects the balancing policy.
	Router Policy
	// Cost prices the tiers for keep-alive eviction decisions.
	Cost costmodel.Model
	// SLO is the latency objective: the event loop counts the completions
	// over it, and the autoscaler scales up on their share. Zero counts
	// none.
	SLO simtime.Duration
	// Autoscale configures the virtual-time autoscaler.
	Autoscale Autoscaler

	// XRay, when set, collects one budget per invocation labeled
	// "<fn>@<node>/cluster[/<XRayTag>]" with causally ordered
	// node.queue / snapshot.pull / exec.* segments that sum to the
	// record's end-to-end latency, plus router/autoscaler marks.
	XRay *xray.Collector
	// XRayTag, when non-empty, suffixes every budget label so dumps from
	// different fleet shapes (node count, policy, arrival process) compare
	// as distinct cells in tossctl report.
	XRayTag string
	// Trace, when set, records the run's decision trace in Report.Trace:
	// every routing decision with its candidate ranking, the node grid at
	// every SampleInterval boundary, and each node's invocation latencies.
	// The autoscaler's actions are Report.ScaleEvents either way.
	Trace bool
}

// DefaultConfig returns a small fleet of paper hosts: 3 nodes, 20 cores
// each, 64 GB snapshot store, 2 GB/s pull bandwidth, affinity routing, and
// a 250 ms SLO with autoscaling off.
func DefaultConfig(nodes int) Config {
	return Config{
		Hosts:           fleet.PaperHost().Hosts(nodes),
		Cores:           20,
		DiskBytes:       64 << 30,
		PullBytesPerSec: 2 << 30,
		ResumeCost:      500 * simtime.Microsecond,
		Router:          RouteAffinity,
		Cost:            costmodel.Default(),
		SLO:             250 * simtime.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := fleet.ValidateFleet(c.Hosts); err != nil {
		return err
	}
	if c.Cores < 1 {
		return fmt.Errorf("cluster: Cores %d < 1", c.Cores)
	}
	if c.DiskBytes <= 0 {
		return fmt.Errorf("cluster: non-positive snapshot store capacity")
	}
	if c.PullBytesPerSec <= 0 {
		return fmt.Errorf("cluster: non-positive pull bandwidth")
	}
	if c.ResumeCost < 0 {
		return fmt.Errorf("cluster: negative resume cost")
	}
	if c.SLO < 0 {
		return fmt.Errorf("cluster: negative SLO")
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	return c.Autoscale.validate(len(c.Hosts))
}

// node is one simulated host. Function-keyed state is indexed by the
// cluster's interned function id (a dense int over the sorted profile set)
// so the dispatch path runs on slice indexing instead of string-keyed maps.
type node struct {
	id   string
	idx  int32 // index into Cluster.nodes
	host fleet.HostSpec

	cores   int
	free    int
	waiting waitRing
	cache   *keepalive.Cache

	// resident[fid] is the snapshot bytes held on local disk (0 = absent);
	// lastUsed drives LRU eviction when diskUsed would exceed capacity.
	// Eviction scans fids in ascending order with a strict time comparison,
	// which reproduces the former map's min-(time, name) victim choice
	// because fid order is name order.
	resident []int64
	lastUsed []simtime.Duration
	diskUsed int64

	lastColdSetup []simtime.Duration

	// latencies holds the end-to-end latency of every invocation
	// dispatched here, in dispatch order; only a traced run fills it.
	latencies []simtime.Duration

	busy        simtime.Duration
	invocations int64
	cold        int64

	// router accumulates this node's share of routing decisions.
	router NodeRouterStats

	draining bool
	alive    bool
}

// queued is one routed arrival waiting for a core: its arrival (= enqueue)
// time, interned function id and input level.
type queued struct {
	enq   simtime.Duration
	fid   int32
	level uint8
	// route is the routing reason (a routeReasons code) and diverted
	// whether the router moved the arrival off its hash primary; both ride
	// to dispatch so the invocation's budget carries them.
	route    uint8
	diverted bool
}

// waitRing is a growable FIFO ring of queued arrivals: steady-state
// enqueue/dequeue churn reuses the buffer instead of the reslice-and-append
// pattern that reallocates as the front capacity is abandoned.
type waitRing struct {
	buf  []queued
	head int
	n    int
}

func (r *waitRing) len() int { return r.n }

func (r *waitRing) push(q queued) {
	if r.n == len(r.buf) {
		grown := make([]queued, 2*r.n+4)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *waitRing) pop() queued {
	q := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

// inflight is the node's outstanding work: running plus queued invocations.
func (n *node) inflight() int {
	return n.waiting.len() + (n.cores - n.free)
}

// Record is one dispatched invocation's outcome as its xray budget reads
// it: the routing reason and the latency segments. The run's own log keeps
// only the columns binaries read (see Records).
type Record struct {
	Function string
	// Route is the routing reason (a Reason* constant: rr, least, affinity,
	// spill, shed).
	Route string
	// Diverted reports the arrival left its hash primary: a spill, or a
	// shed to another node, which is what RouterStats.Spills counts.
	Diverted bool
	// QueueDelay is time waiting for a core on the routed node.
	QueueDelay simtime.Duration
	// Pull is snapshot-fetch time on a cold start at a node without the
	// snapshot on local disk (zero otherwise).
	Pull  simtime.Duration
	Setup simtime.Duration
	Exec  simtime.Duration
	Cold  bool
}

// Latency is the end-to-end response time.
func (r Record) Latency() simtime.Duration {
	return r.QueueDelay + r.Pull + r.Setup + r.Exec
}

// NodeStats summarizes one node's run.
type NodeStats struct {
	ID          string
	Invocations int64
	ColdStarts  int64
	Busy        simtime.Duration
	Cache       keepalive.Stats
	// Final reports the node was still live at the end of the run.
	Final bool
}

// Report aggregates a cluster run.
type Report struct {
	Records Records
	Horizon simtime.Duration
	Router  RouterStats
	// Pulls / PullTime count snapshot fetches onto node-local stores.
	Pulls    int64
	PullTime simtime.Duration
	// BusyCoreTime accumulates fleet-wide core occupancy (pull+setup+exec).
	BusyCoreTime simtime.Duration
	// ScaleEvents are the autoscaler's decisions in virtual-time order.
	ScaleEvents []ScaleEvent
	// PeakNodes / FinalNodes bracket the fleet size over the run.
	PeakNodes  int
	FinalNodes int
	// Nodes lists per-node statistics in node-id order.
	Nodes []NodeStats
	// Trace is the run's decision trace; nil unless Config.Trace is set.
	Trace *Trace
}

// ColdFraction returns the fraction of invocations that cold-started.
func (r *Report) ColdFraction() float64 {
	n := r.Records.Len()
	if n == 0 {
		return 0
	}
	cold := 0
	for i := 0; i < n; i++ {
		if r.Records.Cold(i) {
			cold++
		}
	}
	return float64(cold) / float64(n)
}

// Throughput returns completed invocations per second of virtual time.
func (r *Report) Throughput() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Records.Len()) / r.Horizon.Seconds()
}

// Cluster is one fleet simulation instance.
type Cluster struct {
	cfg Config

	// fnNames is the profiled function set in sorted order; a function's
	// id is its index (so id order is name order — LRU tie-breaks and the
	// Records dictionary rely on that). profs is parallel to fnNames.
	fnNames []string
	fnIdx   map[string]int32
	profs   []FnProfile

	// nodes holds every node ever created, in creation order; the cached
	// index sets below filter it. Node ids ("n01", "n02", ...) follow
	// creation order, so the whole run is reproducible from the seed and
	// config alone.
	nodes  []*node
	nextID int
	rr     int

	heap eventHeap
	seq  uint64
	now  simtime.Duration
	// next is the pending arrival (enq is its arrival time), valid while
	// !exhausted. It came from batch, the producer's hand-off the loop is
	// reading, at pos-1.
	next  queued
	prod  *producer
	batch *arrivalBatch
	pos   int

	report Report
	// violations counts the completions over Config.SLO so far; the
	// autoscaler reads it against Records' completion count.
	violations int64
	// trace is report.Trace, and nextSample the next grid boundary it
	// samples.
	trace      *Trace
	nextSample simtime.Duration

	// remaining counts pulled-but-not-completed arrivals and exhausted
	// marks the source dry; the autoscaler stops ticking when both say the
	// run is over, so runs terminate.
	remaining int64
	exhausted bool

	// autoscaler deltas since the last tick.
	lastBusy           simtime.Duration
	lastTotal, lastBad int64
	// pending scale marks attach to the next sealed xray budget.
	pendingUp, pendingDown int64

	// Topology caches, rebuilt on node add/drain/retire: routableIdx and
	// liveIdx index into nodes in creation order; topoEpoch invalidates the
	// per-function rendezvous rankings in rankCache.
	topoEpoch   uint64
	routableIdx []int32
	liveIdx     []int32
	rankEpoch   []uint64
	rankCache   [][]int32
	rankW       []uint64 // ranking-sort scratch
}

// New builds a cluster from measured function profiles (see Profile).
func New(cfg Config, profiles map[string]FnProfile) (*Cluster, error) {
	cfg.Autoscale = cfg.Autoscale.withDefaults(len(cfg.Hosts))
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("cluster: no function profiles")
	}
	c := &Cluster{cfg: cfg, topoEpoch: 1}
	c.fnNames = make([]string, 0, len(profiles))
	for fn := range profiles {
		c.fnNames = append(c.fnNames, fn)
	}
	sort.Strings(c.fnNames)
	c.fnIdx = make(map[string]int32, len(c.fnNames))
	c.profs = make([]FnProfile, len(c.fnNames))
	for i, fn := range c.fnNames {
		c.fnIdx[fn] = int32(i)
		c.profs[i] = profiles[fn]
	}
	c.rankEpoch = make([]uint64, len(c.fnNames))
	c.rankCache = make([][]int32, len(c.fnNames))
	c.report.Records.fnNames = c.fnNames
	c.report.Records.profs = c.profs
	if cfg.Trace {
		c.trace = &Trace{}
		c.report.Trace = c.trace
	}
	for _, h := range cfg.Hosts {
		c.addNode(h)
	}
	return c, nil
}

// addNode creates and registers one live node.
func (c *Cluster) addNode(h fleet.HostSpec) *node {
	c.nextID++
	n := &node{
		id:            fmt.Sprintf("n%02d", c.nextID),
		idx:           int32(len(c.nodes)),
		host:          h,
		cores:         c.cfg.Cores,
		free:          c.cfg.Cores,
		resident:      make([]int64, len(c.fnNames)),
		lastUsed:      make([]simtime.Duration, len(c.fnNames)),
		lastColdSetup: make([]simtime.Duration, len(c.fnNames)),
		alive:         true,
	}
	n.router.Node = n.id
	// The keep-alive cache spans the node's full tier capacities: warm VMs
	// are what the memory is for.
	cache, err := keepalive.New(h.FastBytes, h.SlowBytes, c.cfg.Cost)
	if err != nil {
		// Config and host specs were validated; a failure here is a
		// programming error.
		panic(err)
	}
	n.cache = cache
	c.nodes = append(c.nodes, n)
	c.rebuildTopo()
	if live := len(c.liveIdx); live > c.report.PeakNodes {
		c.report.PeakNodes = live
	}
	return n
}

// rebuildTopo refreshes the cached live/routable index sets and bumps the
// epoch that invalidates cached rendezvous rankings. Called on every
// topology change (node add, drain start, retirement); between changes the
// routing hot path reuses the caches allocation-free.
func (c *Cluster) rebuildTopo() {
	c.topoEpoch++
	c.routableIdx = c.routableIdx[:0]
	c.liveIdx = c.liveIdx[:0]
	for i, n := range c.nodes {
		if !n.alive {
			continue
		}
		c.liveIdx = append(c.liveIdx, int32(i))
		if !n.draining {
			c.routableIdx = append(c.routableIdx, int32(i))
		}
	}
}

// RunStream drives the simulation from a pull-based arrival source, so a
// day-long schedule is simulated in O(fleet) memory plus the columnar
// record log. A producer goroutine pulls the source ahead of the loop
// (producer.go); the next arrival waits beside the event heap and is
// handled as soon as its time is no later than the heap's top: arrivals go
// ahead of same-time completions and ticks, exactly as when the whole
// schedule was pushed before the first event. An arrival for an unprofiled
// function, or one earlier than the arrival before it, fails the run, and
// a panic in the source is raised again here. The producer has returned
// by the time RunStream does.
func (c *Cluster) RunStream(src workload.Source) (*Report, error) {
	p := startProducer(src, c.fnIdx)
	defer p.stop()
	c.prod = p
	c.batch, c.pos = <-p.full, 0
	if err := c.pullArrival(); err != nil {
		return nil, err
	}
	if c.cfg.Autoscale.Enabled {
		c.pushEvent(event{at: c.cfg.Autoscale.Tick, kind: evScaleTick})
	}
	for !c.exhausted || c.heap.len() > 0 {
		if !c.exhausted && (c.heap.len() == 0 || c.next.enq <= c.heap.es[0].at) {
			a := c.next
			c.now = a.enq
			// Replenish the pending arrival before handling this one; the
			// next arrival is no earlier, so it cannot affect this one.
			if err := c.pullArrival(); err != nil {
				return nil, err
			}
			c.routeArrival(a)
		} else {
			e := c.heap.pop()
			c.now = e.at
			switch e.kind {
			case evCompletion:
				n := c.nodes[e.node]
				n.free++
				if lat := c.report.Records.complete(e.rec); c.cfg.SLO > 0 && lat > c.cfg.SLO {
					c.violations++
				}
				c.remaining--
				// The horizon is the last completion, not the last event, so
				// a trailing autoscaler tick does not dilute Throughput.
				if c.now > c.report.Horizon {
					c.report.Horizon = c.now
				}
				for n.free > 0 && n.waiting.len() > 0 {
					c.dispatch(n, n.waiting.pop())
				}
			case evScaleTick:
				c.onScaleTick()
				if c.remaining > 0 || !c.exhausted {
					c.pushEvent(event{at: c.now + c.cfg.Autoscale.Tick, kind: evScaleTick})
				}
			}
		}
		if c.trace != nil && c.now >= c.nextSample {
			c.sample()
		}
	}
	for _, n := range c.nodes {
		c.report.Nodes = append(c.report.Nodes, NodeStats{
			ID:          n.id,
			Invocations: n.invocations,
			ColdStarts:  n.cold,
			Busy:        n.busy,
			Cache:       n.cache.Stats(),
			Final:       n.alive,
		})
		if c.trace != nil {
			c.trace.Latencies = append(c.trace.Latencies, n.latencies)
		}
	}
	c.report.FinalNodes = len(c.liveIdx)
	c.report.Router.PerNode = c.perNodeStats()
	return &c.report, nil
}

// pullArrival makes the producer's next arrival the pending one, or marks
// the source dry, or returns the error of the arrival the source failed
// at. A batch the loop has read goes back to the producer.
func (c *Cluster) pullArrival() error {
	for c.pos == c.batch.n {
		b := c.batch
		if b.final {
			if b.panicValue != nil {
				panic(b.panicValue)
			}
			if b.failure != nil {
				return b.failure
			}
			c.exhausted = true
			return nil
		}
		c.prod.free <- b
		c.batch, c.pos = <-c.prod.full, 0
	}
	c.next = c.batch.qs[c.pos]
	c.pos++
	c.remaining++
	return nil
}

// routeArrival routes one arrival (enq = now) and dispatches or enqueues
// it on the chosen node.
func (c *Cluster) routeArrival(q queued) {
	res := c.route(q.fid)
	hit := c.countRoute(res, q.fid)
	if c.trace != nil {
		c.trace.Decisions = append(c.trace.Decisions, Decision{
			At:         c.now,
			Function:   c.fnNames[q.fid],
			Node:       res.n.id,
			Reason:     routeReasons[res.reason],
			Hit:        hit,
			Candidates: res.cands,
		})
	}
	q.route, q.diverted = res.reason, res.diverted
	if res.n.free == 0 {
		res.n.waiting.push(q)
	} else {
		c.dispatch(res.n, q)
	}
}

func (c *Cluster) pushEvent(e event) {
	e.seq = c.seq
	c.seq++
	c.heap.push(e)
}

// countRoute updates the fleet-wide and per-node router statistics for one
// decision and reports whether the chosen node already held the function.
func (c *Cluster) countRoute(res routeResult, fid int32) bool {
	n := res.n
	c.report.Router.Decisions++
	hit := n.cache.Contains(c.fnNames[fid]) || n.resident[fid] > 0
	if hit {
		c.report.Router.AffinityHits++
	}
	// A spill is any arrival diverted off its hash primary, so a shed that
	// lands on the primary counts as a shed only.
	if res.diverted {
		c.report.Router.Spills++
	}
	if res.reason == routeShed {
		c.report.Router.Sheds++
	}
	n.router.Decisions++
	if hit {
		n.router.AffinityHits++
	}
	if res.diverted {
		n.router.Spills++
	}
	if res.reason == routeShed {
		n.router.Sheds++
	}
	return hit
}

// perNodeStats materializes the per-node router counters in id order,
// including only nodes that were actually routed to.
func (c *Cluster) perNodeStats() []NodeRouterStats {
	out := make([]NodeRouterStats, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.router.Decisions > 0 {
			out = append(out, n.router)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// dispatch runs one queued invocation on node n starting now.
func (c *Cluster) dispatch(n *node, q queued) {
	n.free--
	fid := q.fid
	fn := c.fnNames[fid]
	prof := &c.profs[fid]
	lv := int(q.level)

	var pull, setup, exec simtime.Duration
	var cold bool
	if _, warm := n.cache.Take(fn); warm {
		setup = c.cfg.ResumeCost
		exec = prof.WarmExec[lv]
	} else {
		cold = true
		n.cold++
		if n.resident[fid] == 0 {
			pull = c.pullSnapshot(n, fid, prof.SnapshotBytes)
		}
		setup = prof.ColdSetup[lv]
		exec = prof.ColdExec[lv]
		n.lastColdSetup[fid] = setup
	}
	n.lastUsed[fid] = c.now
	n.invocations++

	qd := c.now - q.enq
	work := pull + setup + exec
	latency := qd + work
	n.busy += work
	c.report.BusyCoreTime += work
	i := c.report.Records.push(fid, q.level, cold, q.enq, latency)
	c.pushEvent(event{at: c.now + work, kind: evCompletion, node: n.idx, rec: i})

	if c.cfg.XRay != nil {
		c.observeInvocation(n, Record{
			Function:   fn,
			Route:      routeReasons[q.route],
			Diverted:   q.diverted,
			QueueDelay: qd,
			Pull:       pull,
			Setup:      setup,
			Exec:       exec,
			Cold:       cold,
		})
	}
	if c.trace != nil {
		n.latencies = append(n.latencies, latency)
	}

	// Keep the finished VM warm on the node's tiers until evicted; the
	// admission happens at dispatch (same convention as sched) so back-to-
	// back arrivals see the warm VM.
	coldSetup := n.lastColdSetup[fid]
	if coldSetup == 0 {
		coldSetup = setup
	}
	n.cache.AdmitQuiet(keepalive.ItemFor(fn, prof.FastPages, prof.SlowPages, coldSetup))
}

// pullSnapshot fetches fn's snapshot onto n's local store, evicting LRU
// snapshots to make room, and returns the transfer time.
func (c *Cluster) pullSnapshot(n *node, fid int32, bytes int64) simtime.Duration {
	if bytes > c.cfg.DiskBytes {
		// A snapshot larger than the store streams through without ever
		// becoming resident; every cold start at this node re-pulls.
		return simtime.Duration(bytes * int64(simtime.Second) / c.cfg.PullBytesPerSec)
	}
	for n.diskUsed+bytes > c.cfg.DiskBytes {
		// Victim = minimum (lastUsed, name); the ascending-fid scan with a
		// strict comparison lands on the smallest name among ties because
		// fid order is name order.
		victim := int32(-1)
		var oldest simtime.Duration
		for f := range n.resident {
			if n.resident[f] == 0 {
				continue
			}
			if at := n.lastUsed[f]; victim < 0 || at < oldest {
				victim, oldest = int32(f), at
			}
		}
		if victim < 0 {
			break
		}
		n.diskUsed -= n.resident[victim]
		n.resident[victim] = 0
	}
	n.resident[fid] = bytes
	n.diskUsed += bytes
	c.report.Pulls++
	dur := simtime.Duration(bytes * int64(simtime.Second) / c.cfg.PullBytesPerSec)
	c.report.PullTime += dur
	return dur
}

// observeInvocation lands one dispatched invocation's attribution budget on
// the xray collector.
func (c *Cluster) observeInvocation(n *node, rec Record) {
	label := rec.Function + "@" + n.id + "/cluster"
	if c.cfg.XRayTag != "" {
		label += "/" + c.cfg.XRayTag
	}
	// The segments are added in causal order — node queue, snapshot pull,
	// then execution — and decompose the independently computed
	// Record.Latency() exactly (zero segments are dropped by Budget.Add),
	// so Sum()==Recorded() stays a real cross-check at fleet scale.
	bud := xray.New(label)
	bud.Add(xray.SegNodeQueue, rec.QueueDelay)
	bud.Add(xray.SegSnapshotPull, rec.Pull)
	if rec.Cold {
		bud.Add(xray.SegExecSetup, rec.Setup)
		bud.Mark("start.cold", 1)
	} else {
		bud.Add(xray.SegExecResume, rec.Setup)
		bud.Mark("start.warm", 1)
	}
	bud.Add(xray.SegExecRun, rec.Exec)
	if rec.Diverted {
		bud.Mark(xray.MarkRouterSpill, 1)
	}
	if rec.Route == ReasonShed {
		bud.Mark(xray.MarkRouterShed, 1)
	}
	if c.pendingUp > 0 {
		bud.Mark(xray.MarkScaleUp, c.pendingUp)
		c.pendingUp = 0
	}
	if c.pendingDown > 0 {
		bud.Mark(xray.MarkScaleDown, c.pendingDown)
		c.pendingDown = 0
	}
	bud.Seal(rec.Latency())
	c.cfg.XRay.Observe(bud)
}

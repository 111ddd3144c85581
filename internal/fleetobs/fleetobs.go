// Package fleetobs is the fleet-scale observability surface: a virtual-time
// decision trace plus a node-grid sampler for internal/cluster runs. Where
// internal/xray answers "where did this invocation's nanoseconds go",
// fleetobs answers the cluster-shaped questions — which node got each
// arrival and why (affinity hit, spill down the hash ranking, shed), what
// the autoscaler saw when it resized the fleet, and how utilization, queue
// depth, and snapshot-tier occupancy moved across the node grid over the
// run.
//
// The package follows the same discipline as the rest of the stack:
//
//   - Virtual time only. Every event and sample is stamped with the
//     cluster's simulated clock, so a trace replays identically from the
//     seed and is byte-identical at any experiment parallelism.
//
//   - Deterministic exports. The JSON-lines decision log, the Chrome trace
//     (one track per node), the /fleet dashboard JSON, and the -fleetview
//     ASCII grid are all hand-serialized with fixed field order and fixed
//     number formatting, and covered by golden tests.
//
//   - Nil safety. Every method on a nil *Recorder is a no-op, so cluster
//     hot paths pay one pointer comparison when fleet tracing is off.
//
// One Recorder observes one cluster run. A par.Sink of cell-tagged
// DecisionLog strings folds many recorders (one per experiment cell) into a
// single deterministic log regardless of the order cells complete in.
package fleetobs

import (
	"sort"
	"sync"

	"toss/internal/simtime"
	"toss/internal/stats"
)

// Routing reasons recorded on decision events. RouteRoundRobin and
// RouteLeastLoaded report their policy name; the affinity policy splits into
// primary hit, spill, and shed.
const (
	// ReasonRoundRobin: the round-robin cursor picked the node.
	ReasonRoundRobin = "rr"
	// ReasonLeastLoaded: the node had the fewest in-flight invocations.
	ReasonLeastLoaded = "least"
	// ReasonAffinity: the node is the arrival's rendezvous-hash primary.
	ReasonAffinity = "affinity"
	// ReasonSpill: the primary was overloaded; the arrival moved down the
	// hash ranking to the first node with a free core.
	ReasonSpill = "spill"
	// ReasonShed: every candidate was overloaded; the arrival was shed to
	// the least-loaded node of the ranking.
	ReasonShed = "shed"
)

// Candidate is one entry of the ranked candidate list considered for a
// routing decision, in the order the router considered them.
type Candidate struct {
	// Node is the candidate's id.
	Node string
	// Inflight is the candidate's running plus queued invocations at
	// decision time.
	Inflight int
	// Hit reports the candidate already held the function warm or its
	// snapshot on local disk.
	Hit bool
}

// Decision is one front-end routing decision.
type Decision struct {
	// At is the virtual time the decision was made.
	At simtime.Duration
	// Function is the routed arrival's function.
	Function string
	// Node is the chosen node.
	Node string
	// Reason is one of the Reason* constants.
	Reason string
	// Hit reports the chosen node already held the function warm or its
	// snapshot on local disk.
	Hit bool
	// RouterQueue / Decide are the front-end router's wait and decision
	// cost. The cluster's front end is instantaneous and leaves both zero;
	// the decision-log format keeps them for routers that are not.
	RouterQueue simtime.Duration
	Decide      simtime.Duration
	// Candidates is the ranked candidate list the router considered, in
	// consideration order (the full routable set for rr/least; the
	// rendezvous ranking for affinity).
	Candidates []Candidate
}

// Scale is one autoscaler action with the signals that triggered it.
type Scale struct {
	// At is the virtual time of the decision.
	At simtime.Duration
	// Action is "up" (node added) or "down" (node begins draining).
	Action string
	// Node names the added or draining node.
	Node string
	// Util / Burn are the fleet utilization and SLO-burn fraction the
	// autoscaler evaluated.
	Util float64
	Burn float64
	// Fleet is the routable fleet size after the decision.
	Fleet int
}

// Event is one entry of the unified decision trace: exactly one of Route or
// Scale is set. Events are appended in simulation order, so the trace is
// totally ordered by (At, append order) without an explicit sequence number.
type Event struct {
	Route *Decision
	Scale *Scale
}

// At returns the event's virtual timestamp.
func (e Event) At() simtime.Duration {
	if e.Route != nil {
		return e.Route.At
	}
	if e.Scale != nil {
		return e.Scale.At
	}
	return 0
}

// NodeSample is one node's state at one grid-sampling boundary.
type NodeSample struct {
	// At is the boundary's virtual time.
	At simtime.Duration
	// Node is the sampled node's id.
	Node string
	// Cores / Running / Queued describe core occupancy and queue depth.
	Cores   int
	Running int
	Queued  int
	// DiskUsed / DiskCap are the node-local snapshot store occupancy.
	DiskUsed int64
	DiskCap  int64
	// FastUsed / FastCap and SlowUsed / SlowCap are the keep-alive cache's
	// per-tier occupancy against the host's tier capacities.
	FastUsed int64
	FastCap  int64
	SlowUsed int64
	SlowCap  int64
	// Alive / Draining mirror the node's lifecycle state; a retired node
	// keeps its grid row (all-zero occupancy) so the heatmap stays square.
	Alive    bool
	Draining bool
}

// Util is the sample's core utilization in [0, 1].
func (s NodeSample) Util() float64 {
	if s.Cores == 0 {
		return 0
	}
	return float64(s.Running) / float64(s.Cores)
}

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the node-grid sampling cadence in virtual time
	// (default 1s). Decision and scale events are never sampled — the
	// trace records every one.
	Interval simtime.Duration
}

// Recorder collects one cluster run's decision trace and node grid. Safe
// for concurrent use: the cluster feeds it from the (serial) event loop
// while an HTTP dashboard reads views.
type Recorder struct {
	mu       sync.Mutex
	interval simtime.Duration
	next     simtime.Duration
	events   []Event
	samples  []NodeSample
	nodes    map[string]*nodeAgg
}

// nodeAgg accumulates per-node aggregates as the run progresses.
type nodeAgg struct {
	invocations int64
	cold        int64
	latencies   []simtime.Duration

	decisions int64
	hits      int64
	spills    int64
	sheds     int64

	last    NodeSample
	hasLast bool
}

// New returns a Recorder with cfg's cadence (Interval defaults to 1s).
func New(cfg Config) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = simtime.Second
	}
	return &Recorder{interval: cfg.Interval, nodes: make(map[string]*nodeAgg)}
}

func (r *Recorder) node(id string) *nodeAgg {
	a := r.nodes[id]
	if a == nil {
		a = &nodeAgg{}
		r.nodes[id] = a
	}
	return a
}

// RouteDecision records one routing decision. Nil recorders ignore the call.
func (r *Recorder) RouteDecision(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Route: &d})
	a := r.node(d.Node)
	a.decisions++
	if d.Hit {
		a.hits++
	}
	switch d.Reason {
	case ReasonSpill:
		a.spills++
	case ReasonShed:
		a.sheds++
	}
}

// ScaleAction records one autoscaler decision. Nil recorders ignore the call.
func (r *Recorder) ScaleAction(s Scale) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Scale: &s})
}

// Invocation records one dispatched invocation's outcome against its node,
// feeding the per-node latency percentiles and cold-start counts.
func (r *Recorder) Invocation(node string, latency simtime.Duration, cold bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.node(node)
	a.invocations++
	if cold {
		a.cold++
	}
	a.latencies = append(a.latencies, latency)
}

// SampleAt advances the grid sampler to virtual time now, calling states
// once if at least one boundary was crossed and stamping the returned node
// states at every crossed boundary (values hold across gaps, the same
// convention as the obs flight recorder). The first boundary is t=0.
func (r *Recorder) SampleAt(now simtime.Duration, states func() []NodeSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if now < r.next {
		return
	}
	st := states()
	for r.next <= now {
		for _, s := range st {
			s.At = r.next
			r.samples = append(r.samples, s)
			a := r.node(s.Node)
			a.last = s
			a.hasLast = true
		}
		r.next += r.interval
	}
}

// Events returns a copy of the decision trace in simulation order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Samples returns a copy of the node-grid samples in (boundary, node) order.
func (r *Recorder) Samples() []NodeSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]NodeSample(nil), r.samples...)
}

// nodeIDs returns every node seen by any feed, sorted.
func (r *Recorder) nodeIDsLocked() []string {
	ids := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// percentile returns the p-th percentile of ls (which it sorts in place
// on a copy), using the same nearest-rank convention as cluster.Report.
func percentile(ls []simtime.Duration, p float64) simtime.Duration {
	return stats.NearestRankInPlace(append([]simtime.Duration(nil), ls...), p)
}

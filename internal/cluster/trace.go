package cluster

import "toss/internal/simtime"

// SampleInterval is the virtual-time cadence at which a traced run samples
// its node grid.
const SampleInterval = simtime.Second

// Trace is a traced run's own record of what it decided (Config.Trace),
// written by the event loop and read once the run is over; internal/fleetobs
// renders it. The autoscaler's actions are Report.ScaleEvents, and the
// per-node invocation and cold-start counts are Report.Nodes.
type Trace struct {
	// Decisions holds every routing decision in simulation order.
	Decisions []Decision
	// Samples holds the node grid at every SampleInterval boundary the run
	// crossed, starting at t=0: one sample per node ever created, in id
	// order, per boundary. A boundary crossed between events holds the
	// state after the event that crossed it.
	Samples []NodeSample
	// Latencies holds, per entry of Report.Nodes, the end-to-end latency of
	// every invocation dispatched to that node, in dispatch order.
	Latencies [][]simtime.Duration
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
	// Candidates is the ranked candidate list the router considered, in
	// consideration order (the full routable set for rr/least; the
	// rendezvous ranking for affinity).
	Candidates []Candidate
}

// Candidate is one entry of the ranked candidate list considered for a
// routing decision.
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

// sample stamps the grid's current state at every boundary from nextSample
// up to now (values hold across gaps).
func (c *Cluster) sample() {
	states := c.nodeStates()
	for c.nextSample <= c.now {
		for _, s := range states {
			s.At = c.nextSample
			c.trace.Samples = append(c.trace.Samples, s)
		}
		c.nextSample += SampleInterval
	}
}

// nodeStates snapshots every node ever created, in creation (= id) order.
// Retired nodes keep their row so the heatmap stays square over autoscaler
// churn.
func (c *Cluster) nodeStates() []NodeSample {
	out := make([]NodeSample, 0, len(c.nodes))
	for _, n := range c.nodes {
		s := NodeSample{
			Node:     n.id,
			Cores:    n.cores,
			Alive:    n.alive,
			Draining: n.draining,
		}
		if n.alive {
			fast, slow := n.cache.Occupancy()
			s.Running = n.cores - n.free
			s.Queued = n.waiting.len()
			s.DiskUsed, s.DiskCap = n.diskUsed, c.cfg.DiskBytes
			s.FastUsed, s.FastCap = fast, n.host.FastBytes
			s.SlowUsed, s.SlowCap = slow, n.host.SlowBytes
		}
		out = append(out, s)
	}
	return out
}

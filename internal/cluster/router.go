package cluster

import (
	"fmt"

	"toss/internal/fleetobs"
)

// Policy selects the front-end routing policy.
type Policy int

const (
	// RouteRoundRobin cycles arrivals over live nodes in id order.
	RouteRoundRobin Policy = iota
	// RouteLeastLoaded picks the node with the fewest in-flight plus
	// queued invocations (ties break by node id).
	RouteLeastLoaded
	// RouteAffinity steers each function to its rendezvous-hash node so
	// restores land where the snapshot and warm VMs already live, spilling
	// down the hash ranking when the primary is overloaded.
	RouteAffinity
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RouteRoundRobin:
		return "rr"
	case RouteLeastLoaded:
		return "least"
	case RouteAffinity:
		return "affinity"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies returns every routing policy in canonical order.
func Policies() []Policy { return []Policy{RouteRoundRobin, RouteLeastLoaded, RouteAffinity} }

// ParsePolicy maps a CLI name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown router policy %q (want rr, least, or affinity)", s)
}

// Routing reasons are stored as single-byte codes on the hot path (queued
// arrivals, the Records route column) and decoded to the fleetobs.Reason*
// strings at the observer and report boundaries.
const (
	routeRR uint8 = iota
	routeLeast
	routeAffinity
	routeSpill
	routeShed
)

// routeReasons decodes a reason code to its fleetobs string.
var routeReasons = [...]string{
	routeRR:       fleetobs.ReasonRoundRobin,
	routeLeast:    fleetobs.ReasonLeastLoaded,
	routeAffinity: fleetobs.ReasonAffinity,
	routeSpill:    fleetobs.ReasonSpill,
	routeShed:     fleetobs.ReasonShed,
}

// RouterStats counts front-end routing decisions.
type RouterStats struct {
	// Decisions is the total number of routed arrivals.
	Decisions int64
	// AffinityHits counts routes that landed on a node already holding the
	// function warm or its snapshot on local disk (any policy).
	AffinityHits int64
	// Spills counts affinity routes diverted off the hash-primary node
	// because it was overloaded.
	Spills int64
	// Sheds counts affinity routes where every candidate was overloaded
	// and the arrival went to the least-loaded node of the ranking.
	Sheds int64
	// PerNode breaks the counters down by the routed node, in id order.
	PerNode []NodeRouterStats
}

// NodeRouterStats is one node's share of the router's decisions.
type NodeRouterStats struct {
	Node         string
	Decisions    int64
	AffinityHits int64
	Spills       int64
	Sheds        int64
}

// routeResult is one routing decision: the chosen node, the reason code
// (routeReasons index), whether the choice was diverted off the affinity
// primary, and — only when a fleetobs recorder is attached — the ranked
// candidate list the router considered.
type routeResult struct {
	n        *node
	reason   uint8
	diverted bool
	cands    []fleetobs.Candidate
}

// candidates snapshots the considered nodes for the decision trace; nil
// unless a fleetobs recorder is attached (the hot path stays
// allocation-free without one).
func (c *Cluster) candidates(fid int32, idxs []int32) []fleetobs.Candidate {
	if c.cfg.FleetObs == nil {
		return nil
	}
	fn := c.fnNames[fid]
	out := make([]fleetobs.Candidate, len(idxs))
	for i, idx := range idxs {
		nd := c.nodes[idx]
		out[i] = fleetobs.Candidate{
			Node:     nd.id,
			Inflight: nd.inflight(),
			Hit:      nd.cache.Contains(fn) || nd.resident[fid] > 0,
		}
	}
	return out
}

// route picks the target node for one arrival among the live, non-draining
// nodes. It never returns a nil node while the cluster has at least one
// routable node. The candidate sets are the cached topology indexes, and
// affinity rankings are cached per function between topology changes, so a
// steady-state decision performs no allocation.
func (c *Cluster) route(fid int32) routeResult {
	fn := c.fnNames[fid]
	cands := c.routableIdx
	fallback := false
	if len(cands) == 0 {
		// Every node is draining (autoscaler pathology); fall back to all
		// live nodes so traffic is never dropped.
		cands = c.liveIdx
		fallback = true
	}
	switch c.cfg.Router {
	case RouteLeastLoaded:
		best := c.nodes[cands[0]]
		for _, i := range cands[1:] {
			if nd := c.nodes[i]; nd.inflight() < best.inflight() {
				best = nd
			}
		}
		return routeResult{n: best, reason: routeLeast, cands: c.candidates(fid, cands)}
	case RouteAffinity:
		var ranked []int32
		if fallback {
			ranked = c.buildRanking(fn, cands, nil)
		} else {
			ranked = c.ranking(fid, fn)
		}
		rc := c.candidates(fid, ranked)
		for i, idx := range ranked {
			nd := c.nodes[idx]
			if !c.overloaded(nd) {
				reason := routeAffinity
				if i > 0 {
					reason = routeSpill
				}
				return routeResult{n: nd, reason: reason, diverted: i > 0, cands: rc}
			}
		}
		// All overloaded: shed to the least-loaded of the ranked set so the
		// hot spot does not collapse a single node.
		best := c.nodes[ranked[0]]
		for _, idx := range ranked[1:] {
			if nd := c.nodes[idx]; nd.inflight() < best.inflight() {
				best = nd
			}
		}
		return routeResult{n: best, reason: routeShed, diverted: best != c.nodes[ranked[0]], cands: rc}
	default: // RouteRoundRobin
		n := c.nodes[cands[c.rr%len(cands)]]
		c.rr++
		return routeResult{n: n, reason: routeRR, cands: c.candidates(fid, cands)}
	}
}

// overloaded reports whether a node should be skipped by affinity spill: no
// free core means a routed arrival would queue for a full invocation's
// remaining run time, which dwarfs the cold-start cost of running it on the
// next node in the hash ranking (where the spilled function then builds
// secondary warm state).
func (c *Cluster) overloaded(n *node) bool {
	return n.inflight() >= c.cfg.Cores
}

// ranking returns fn's rendezvous ranking over the routable set, rebuilding
// the cached copy only when the topology epoch moved.
func (c *Cluster) ranking(fid int32, fn string) []int32 {
	if c.rankEpoch[fid] == c.topoEpoch {
		return c.rankCache[fid]
	}
	c.rankCache[fid] = c.buildRanking(fn, c.routableIdx, c.rankCache[fid][:0])
	c.rankEpoch[fid] = c.topoEpoch
	return c.rankCache[fid]
}

// buildRanking appends idxs to dst ordered by highest-random-weight hash
// for fn (weight descending, node id ascending on ties), computed over node
// indexes with an inline hash so rebuilds don't allocate beyond dst itself.
// Every front-end computes the same ranking independently of fleet-change
// order, and a node join/leave only moves the functions that hashed to it —
// the property that keeps snapshot affinity stable while the autoscaler
// works.
func (c *Cluster) buildRanking(fn string, idxs []int32, dst []int32) []int32 {
	w := c.rankW[:0]
	for _, i := range idxs {
		dst = append(dst, i)
		w = append(w, rendezvousWeight(fn, c.nodes[i].id))
	}
	c.rankW = w
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && (w[j] > w[j-1] || (w[j] == w[j-1] && c.nodes[dst[j]].id < c.nodes[dst[j-1]].id)); j-- {
			w[j], w[j-1] = w[j-1], w[j]
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// rendezvousWeight is the highest-random-weight hash for (fn, node): FNV-1a
// over fn|id, inlined so the routing path never allocates a hasher.
func rendezvousWeight(fn, id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(fn); i++ {
		h ^= uint64(fn[i])
		h *= prime64
	}
	h ^= uint64('|')
	h *= prime64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

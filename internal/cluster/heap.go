package cluster

import (
	"toss/internal/simtime"

	"toss/internal/workload"
)

// event is one entry in the fleet-wide priority queue. Events are plain
// values stored inline in the heap's backing slice: no per-push pointer
// allocation, no interface boxing through container/heap, and the backing
// array is reused across pushes and pops (which subsumes a free-list — a
// popped slot is overwritten by the next push).
type event struct {
	at  simtime.Duration
	seq uint64
	a   workload.ArrivalSpec
	// latency rides on completions so the burn tracker is fed in
	// completion-time order (its Record contract).
	latency simtime.Duration
	// fid is the arrival's interned function id (evArrival).
	fid int32
	// node indexes Cluster.nodes on completions.
	node int32
	kind uint8
	pri  uint8
}

const (
	evArrival uint8 = iota
	evCompletion
	evScaleTick
)

// Event priorities order same-time events. The materialized core pushed
// every arrival before any simulation event, so arrivals held the lowest
// sequence numbers and always popped ahead of same-time loop events; the
// streaming core pushes arrivals lazily, so that invariant is carried by an
// explicit priority instead: arrivals at priArrival, everything else at
// priLoop. Within a priority class the monotone sequence number preserves
// push order, and cross-class comparisons never reach the sequence number —
// which is exactly what makes lazy arrival injection byte-identical to the
// push-everything-upfront schedule.
const (
	priArrival uint8 = iota
	priLoop
)

// eventLess orders the heap by (at, pri, seq).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// eventHeap is a slice-backed 4-ary min-heap. 4-ary halves the tree depth
// of a binary heap, and the four children of a node sit contiguously in
// the backing slice, so sift-down touches less memory per level than the
// pointer-chasing container/heap equivalent.
type eventHeap struct {
	es []event
}

func (h *eventHeap) len() int { return len(h.es) }

func (h *eventHeap) push(e event) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&h.es[i], &h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es[last] = event{} // drop the stale copy's string reference
	h.es = h.es[:last]
	i := 0
	for {
		min := i
		base := 4*i + 1
		end := base + 4
		if end > last {
			end = last
		}
		for c := base; c < end; c++ {
			if eventLess(&h.es[c], &h.es[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h.es[i], h.es[min] = h.es[min], h.es[i]
		i = min
	}
	return top
}

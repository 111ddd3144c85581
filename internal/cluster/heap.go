package cluster

import "toss/internal/simtime"

// event is one entry in the fleet-wide priority queue: a completion or an
// autoscaler tick. Arrivals never enter the queue; RunStream holds the
// source's one pending arrival beside it. Events are 32-byte plain values
// stored inline in the heap's backing slice: no per-push pointer
// allocation, no interface boxing through container/heap, and the backing
// array is reused across pushes and pops (a popped slot is overwritten by
// the next push).
type event struct {
	at  simtime.Duration
	seq uint64
	// rec indexes Records on completions; the burn tracker reads the
	// invocation's latency from there.
	rec int32
	// node indexes Cluster.nodes on completions.
	node int32
	kind uint8
}

const (
	evCompletion uint8 = iota
	evScaleTick
)

// eventLess orders the heap by (at, seq). The monotone sequence number
// keeps same-time events in push order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
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

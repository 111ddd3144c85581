package cluster

import "toss/internal/simtime"

// Records is the run's per-invocation outcome log in columnar
// (struct-of-arrays) form, holding only what binaries read: function
// (interned to a small int), level, cold flag, arrival and end-to-end
// latency, plus the order in which invocations completed. A record costs
// 26 bytes. An invocation's node, routing reason and latency segments go
// to the observers at dispatch (xray budgets, the fleetobs decision trace)
// and are not kept here.
type Records struct {
	// fnNames is the interning dictionary: the profiled function set in
	// sorted order, so function-id order is name order.
	fnNames []string

	fn      []int32
	level   []uint8
	cold    []bool
	arrival []simtime.Duration
	latency []simtime.Duration

	// done lists record indexes in the order the event loop popped their
	// completions.
	done []int32
}

// Len returns the number of recorded invocations.
func (r *Records) Len() int { return len(r.fn) }

// Latency returns invocation i's end-to-end response time.
func (r *Records) Latency(i int) simtime.Duration { return r.latency[i] }

// Arrival returns invocation i's arrival time.
func (r *Records) Arrival(i int) simtime.Duration { return r.arrival[i] }

// Cold reports whether invocation i cold-started.
func (r *Records) Cold(i int) bool { return r.cold[i] }

// Level returns invocation i's input level.
func (r *Records) Level(i int) int { return int(r.level[i]) }

// Function returns invocation i's function name.
func (r *Records) Function(i int) string { return r.fnNames[r.fn[i]] }

// push appends one dispatched invocation and returns its index. Amortized
// allocation-free: five slice appends that each reallocate O(log n) times
// over a run.
func (r *Records) push(fid int32, level uint8, cold bool, arrival, latency simtime.Duration) int32 {
	r.fn = append(r.fn, fid)
	r.level = append(r.level, level)
	r.cold = append(r.cold, cold)
	r.arrival = append(r.arrival, arrival)
	r.latency = append(r.latency, latency)
	return int32(len(r.fn) - 1)
}

// complete logs invocation i's completion and returns its latency.
func (r *Records) complete(i int32) simtime.Duration {
	r.done = append(r.done, i)
	return r.latency[i]
}

// Completion is one finished invocation in completion-time order — the
// nondecreasing virtual-time feed shape insight's alert rules replay.
type Completion struct {
	// At is the completion time: arrival plus end-to-end latency.
	At simtime.Duration
	// Latency is the end-to-end response time.
	Latency simtime.Duration
	// Function / Level identify the invocation's profile cell.
	Function string
	Level    int
	// Cold reports whether the invocation cold-started.
	Cold bool
}

// Completions returns every recorded invocation sorted by completion time,
// ties broken by record order, so replaying the slice feeds virtual time
// forward deterministically. It walks the completion log in pop order:
// the event loop pops completions by (time, sequence), and a completion's
// sequence number follows dispatch order, which is record order. Purely
// derived from the log: calling it cannot affect a run.
func (r *Records) Completions() []Completion {
	out := make([]Completion, len(r.done))
	for k, i := range r.done {
		lat := r.latency[i]
		out[k] = Completion{
			At:       r.arrival[i] + lat,
			Latency:  lat,
			Function: r.fnNames[r.fn[i]],
			Level:    int(r.level[i]),
			Cold:     r.cold[i],
		}
	}
	return out
}

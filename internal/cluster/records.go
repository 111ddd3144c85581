package cluster

import (
	"sort"

	"toss/internal/simtime"
)

// Records is the run's per-invocation outcome log in columnar
// (struct-of-arrays) form. A million-invocation run stores ten dense
// parallel slices — function and node interned to small ints, level and
// routing reason as single bytes — instead of a million ~120-byte Record
// structs full of repeated strings. Consumers that want the struct view
// (report rendering, ext9's decode boundary, the faasim CLI) call At(i),
// which materializes one Record lazily; hot aggregation paths read the
// columns they need via the typed accessors and never decode at all.
type Records struct {
	// fnNames / nodeNames are the interning dictionaries: fnNames is the
	// profiled function set in sorted order (so function-id order is name
	// order), nodeNames every node ever created in creation (= id) order.
	fnNames   []string
	nodeNames []string

	fn    []int32
	node  []int32
	level []uint8
	route []uint8
	cold  []bool

	arrival    []simtime.Duration
	queueDelay []simtime.Duration
	pull       []simtime.Duration
	setup      []simtime.Duration
	exec       []simtime.Duration
}

// Len returns the number of recorded invocations.
func (r *Records) Len() int { return len(r.fn) }

// At decodes invocation i into the struct view.
func (r *Records) At(i int) Record {
	return Record{
		Function:   r.fnNames[r.fn[i]],
		Node:       r.nodeNames[r.node[i]],
		Level:      int(r.level[i]),
		Arrival:    r.arrival[i],
		Route:      routeReasons[r.route[i]],
		QueueDelay: r.queueDelay[i],
		Pull:       r.pull[i],
		Setup:      r.setup[i],
		Exec:       r.exec[i],
		Cold:       r.cold[i],
	}
}

// Latency returns invocation i's end-to-end response time without decoding.
func (r *Records) Latency(i int) simtime.Duration {
	return r.queueDelay[i] + r.pull[i] + r.setup[i] + r.exec[i]
}

// Arrival returns invocation i's arrival time.
func (r *Records) Arrival(i int) simtime.Duration { return r.arrival[i] }

// Cold reports whether invocation i cold-started.
func (r *Records) Cold(i int) bool { return r.cold[i] }

// Level returns invocation i's input level.
func (r *Records) Level(i int) int { return int(r.level[i]) }

// Function returns invocation i's function name.
func (r *Records) Function(i int) string { return r.fnNames[r.fn[i]] }

// Node returns invocation i's node id.
func (r *Records) Node(i int) string { return r.nodeNames[r.node[i]] }

// push appends one invocation. Amortized allocation-free: ten slice
// appends that each reallocate O(log n) times over a run.
func (r *Records) push(fid, node int32, level, route uint8, cold bool,
	arrival, qd, pull, setup, exec simtime.Duration) {
	r.fn = append(r.fn, fid)
	r.node = append(r.node, node)
	r.level = append(r.level, level)
	r.route = append(r.route, route)
	r.cold = append(r.cold, cold)
	r.arrival = append(r.arrival, arrival)
	r.queueDelay = append(r.queueDelay, qd)
	r.pull = append(r.pull, pull)
	r.setup = append(r.setup, setup)
	r.exec = append(r.exec, exec)
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
// forward deterministically. Purely derived from the columnar log: calling
// it cannot affect a run.
func (r *Records) Completions() []Completion {
	out := make([]Completion, r.Len())
	for i := range out {
		lat := r.Latency(i)
		out[i] = Completion{
			At:       r.arrival[i] + lat,
			Latency:  lat,
			Function: r.fnNames[r.fn[i]],
			Level:    int(r.level[i]),
			Cold:     r.cold[i],
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

package cluster

import "toss/internal/simtime"

// Records is the run's per-invocation outcome log in columnar
// (struct-of-arrays) form, holding only what binaries read: function
// (interned to a small int), level, cold flag, arrival and end-to-end
// latency, plus the order in which invocations completed. A record costs
// 26 bytes. An invocation's node, routing reason and latency segments go
// to the xray budgets at dispatch, and a traced run's decisions and
// per-node latencies to Report.Trace; they are not kept here.
//
// The columns live in fixed-size chunks that are allocated once and never
// regrown, so a day-long log costs its own size and no copying. The
// completion order shares the chunks: the k-th completion's record index
// sits in chunk k>>chunkBits, which exists because an invocation completes
// only after it was recorded.
type Records struct {
	// fnNames is the interning dictionary: the profiled function set in
	// sorted order, so function-id order is name order. profs is parallel
	// to it.
	fnNames []string
	profs   []FnProfile

	chunks []*recChunk
	// n counts records, done counts completions.
	n, done int
}

// chunkBits sizes a Records chunk: 4096 records, 104 KiB.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// recChunk holds chunkLen records' columns and chunkLen entries of the
// completion order.
type recChunk struct {
	fn      [chunkLen]int32
	level   [chunkLen]uint8
	cold    [chunkLen]bool
	arrival [chunkLen]simtime.Duration
	latency [chunkLen]simtime.Duration
	// done lists record indexes in the order the event loop popped their
	// completions.
	done [chunkLen]int32
}

// Len returns the number of recorded invocations.
func (r *Records) Len() int { return r.n }

// Latency returns invocation i's end-to-end response time.
func (r *Records) Latency(i int) simtime.Duration { return r.chunks[i>>chunkBits].latency[i&chunkMask] }

// Arrival returns invocation i's arrival time.
func (r *Records) Arrival(i int) simtime.Duration { return r.chunks[i>>chunkBits].arrival[i&chunkMask] }

// Cold reports whether invocation i cold-started.
func (r *Records) Cold(i int) bool { return r.chunks[i>>chunkBits].cold[i&chunkMask] }

// Level returns invocation i's input level.
func (r *Records) Level(i int) int { return int(r.chunks[i>>chunkBits].level[i&chunkMask]) }

// Function returns invocation i's function name.
func (r *Records) Function(i int) string { return r.fnNames[r.chunks[i>>chunkBits].fn[i&chunkMask]] }

// WarmExec returns the execution time invocation i's function has at its
// level in a resumed kept-alive VM (FnProfile.WarmExec), read from the
// profiles by function id and level, so a reader needs no lookup by name.
func (r *Records) WarmExec(i int) simtime.Duration {
	ch := r.chunks[i>>chunkBits]
	return r.profs[ch.fn[i&chunkMask]].WarmExec[ch.level[i&chunkMask]]
}

// Completed returns the record index of the k-th completion, for k in
// [0, Len()) once the run has finished. Walking k upward visits every
// record sorted by completion time (arrival plus latency), ties broken by
// record order: the event loop pops completions by (time, sequence), and a
// completion's sequence number follows dispatch order, which is record
// order. That is the nondecreasing virtual-time feed insight's alert rules
// replay. Purely derived from the log: reading it cannot affect a run.
func (r *Records) Completed(k int) int { return int(r.chunks[k>>chunkBits].done[k&chunkMask]) }

// push appends one dispatched invocation and returns its index. A new
// chunk is the only allocation, once per chunkLen records.
func (r *Records) push(fid int32, level uint8, cold bool, arrival, latency simtime.Duration) int32 {
	i := r.n
	if i>>chunkBits == len(r.chunks) {
		r.chunks = append(r.chunks, new(recChunk))
	}
	ch, j := r.chunks[i>>chunkBits], i&chunkMask
	ch.fn[j] = fid
	ch.level[j] = level
	ch.cold[j] = cold
	ch.arrival[j] = arrival
	ch.latency[j] = latency
	r.n++
	return int32(i)
}

// complete logs invocation i's completion and returns its latency.
func (r *Records) complete(i int32) simtime.Duration {
	k := r.done
	r.chunks[k>>chunkBits].done[k&chunkMask] = i
	r.done++
	return r.Latency(int(i))
}

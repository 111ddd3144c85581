// Package xray is the per-invocation critical-path attribution engine: an
// exact (not sampled) latency budget for every invocation, filled in causally
// ordered segments by the layers an invocation crosses — scheduler queueing,
// platform retry backoff, restore phases, per-tier demand faulting, memory
// service and contention wait, fault-injection stalls. The segments of a
// budget provably sum to the recorded end-to-end time (enforced by invariant
// tests), which is what separates attribution from sampling: every nanosecond
// of an invocation is in exactly one segment.
//
// The package is built around three invariants:
//
//   - Exactness. A machine seals its budget with the end-to-end time from its
//     own virtual clock; the segment decomposition is derived independently
//     from the meter and fault accounting, so Budget.Sum() == Recorded() is a
//     real cross-check, not an identity. Layers that lengthen an invocation
//     after the machine sealed it (retry backoff, snapshot re-capture) extend
//     the budget and the recorded total together via Extend.
//
//   - Parallel safety. Budgets flow into a Collector from concurrently
//     running invocations; aggregation (Aggregate) is commutative — per-label
//     per-segment sums with sorted output — so reports are byte-identical
//     regardless of worker count or arrival order. No consumer forces the
//     experiment pool serial.
//
//   - Nil safety. Every method on a nil *Budget or nil *Collector is a no-op,
//     so the instrumented hot paths pay one pointer comparison when
//     attribution is disabled.
package xray

import (
	"sort"
	"strings"

	"toss/internal/simtime"
)

// Segment identifiers. The taxonomy is stable: exporters, run comparison,
// and the golden files key on these strings.
const (
	// SegQueueWait is time an arrival waited for a free core (sched).
	SegQueueWait = "queue.wait"
	// SegRetryBackoff is virtual-time backoff between fault-policy retries.
	SegRetryBackoff = "retry.backoff"
	// SegBootKernel is a fresh microVM boot (kernel + runtime init).
	SegBootKernel = "boot.kernel"
	// SegRestoreVMLoad is loading the VM state file and device model.
	SegRestoreVMLoad = "restore.vm-load"
	// SegRestoreMmap is establishing memory mappings at restore.
	SegRestoreMmap = "restore.mmap"
	// SegRestorePrefetch is REAP's sequential working-set prefetch read.
	SegRestorePrefetch = "restore.prefetch"
	// SegRestorePTEPopulate is REAP's eager page-table population.
	SegRestorePTEPopulate = "restore.pte-populate"
	// SegSnapshotWrite is snapshot capture charged to an invocation (initial
	// execution, corruption re-capture).
	SegSnapshotWrite = "snapshot.write"
	// SegResume is resuming a kept-alive warm VM (sched).
	SegResume = "sched.resume"
	// SegSchedSetup is a cold restore as charged by the scheduler, which
	// accounts setup as one opaque span (the machine-level budget carries the
	// fine-grained restore decomposition).
	SegSchedSetup = "sched.setup"
	// SegSchedExec is function execution as charged by the scheduler.
	SegSchedExec = "sched.exec"
	// SegExecCPU is execution time attributed to computation and cache hits.
	SegExecCPU = "exec.cpu"
	// SegExecMemFast / SegExecMemSlow are uncontended per-tier memory
	// service time.
	SegExecMemFast = "exec.mem.fast"
	SegExecMemSlow = "exec.mem.slow"
	// SegExecContendFast / SegExecContendSlow are the additional wait caused
	// by tier bandwidth contention with concurrent invocations.
	SegExecContendFast = "exec.contend.fast"
	SegExecContendSlow = "exec.contend.slow"
	// SegExecFaultFast / SegExecFaultSlow are demand-fault stalls during
	// execution, by the tier that served the faulting segment.
	SegExecFaultFast = "exec.fault.fast"
	SegExecFaultSlow = "exec.fault.slow"
	// SegFaultInjected is virtual time added by injected device stalls
	// (disk-read hiccups inside fault bursts, slow-tier read stalls).
	SegFaultInjected = "fault.injected"
	// SegProfilingDAMON is the DAMON profiling overhead applied to execution
	// while a function is in the profiling phase.
	SegProfilingDAMON = "profiling.damon"

	// Cluster-path segments: the causally ordered phases a routed invocation
	// crosses on its chosen node in internal/cluster. Together they provably
	// sum to the cluster Record's end-to-end latency (the same
	// Sum()==Recorded() invariant the single-host budgets carry).

	// SegSnapshotPull is fetching a snapshot onto the routed node's local
	// store before a cold restore (cluster routing missed snapshot affinity).
	SegSnapshotPull = "snapshot.pull"
	// SegNodeQueue is time queued for a free core on the routed node.
	SegNodeQueue = "node.queue"
	// SegExecSetup / SegExecResume / SegExecRun decompose node-local work:
	// cold restore, warm keep-alive resume, and the function body.
	SegExecSetup  = "exec.setup"
	SegExecResume = "exec.resume"
	SegExecRun    = "exec.run"
)

// Mark identifiers: named counters that ride on a budget without entering the
// duration sum (counts, not time).
const (
	MarkMajorFaults = "faults.major"
	MarkMinorFaults = "faults.minor"
	// MarkInjected counts fault-injector firings during the run.
	MarkInjected = "fault.injected.count"
	// MarkPrefetchCredit counts pages made resident at setup time (REAP
	// prefetch, TOSS slow-tier DAX mappings) — demand faults avoided during
	// execution by paying at restore.
	MarkPrefetchCredit = "prefetch.credit.pages"
	// MarkRetries counts fault-policy retries.
	MarkRetries = "retry.count"
	// MarkBreakerVeto counts keep-alive admissions vetoed by an open
	// circuit breaker.
	MarkBreakerVeto = "breaker.veto"
	// MarkScaleUp / MarkScaleDown count autoscaler fleet resizes attached
	// to the first invocation budget sealed after the event.
	MarkScaleUp   = "cluster.scale.up"
	MarkScaleDown = "cluster.scale.down"
	// MarkRouterSpill counts affinity routes diverted off the hash-primary
	// node because it was overloaded.
	MarkRouterSpill = "cluster.router.spill"
	// MarkRouterShed counts routes where every candidate was overloaded and
	// the arrival was shed to the least-loaded node of the ranking.
	MarkRouterShed = "cluster.router.shed"
)

// Segment is one attributed slice of an invocation's latency.
type Segment struct {
	// ID is one of the Seg* constants (layers may add namespaced ids).
	ID string
	// Dur is the virtual time attributed to this segment.
	Dur simtime.Duration
}

// Mark is a named count attached to a budget (no duration).
type Mark struct {
	ID string
	N  int64
}

// Budget is one invocation's latency budget: causally ordered segments plus
// marks. A Budget is filled by one invocation on one goroutine; it is not
// safe for concurrent mutation (hand it to a Collector instead).
type Budget struct {
	// Label identifies the invocation's function (or machine label).
	Label string
	// Segments are in first-appearance (causal) order; repeated Adds with
	// the same id accumulate into the existing segment.
	Segments []Segment
	// Marks are named counts in first-appearance order.
	Marks []Mark

	// recorded is the end-to-end time as recorded independently by the
	// owning layer (Seal, then grown by Extend).
	recorded simtime.Duration
}

// New returns an empty budget for a labeled invocation.
func New(label string) *Budget { return &Budget{Label: label} }

// Add attributes d to segment id, accumulating into an existing segment with
// the same id or appending a new one. Zero durations are dropped so budgets
// stay compact; nil budgets ignore the call.
func (b *Budget) Add(id string, d simtime.Duration) {
	if b == nil || d == 0 {
		return
	}
	for i := range b.Segments {
		if b.Segments[i].ID == id {
			b.Segments[i].Dur += d
			return
		}
	}
	b.Segments = append(b.Segments, Segment{ID: id, Dur: d})
}

// Mark adds n to the named count. Nil budgets and zero increments are no-ops.
func (b *Budget) Mark(id string, n int64) {
	if b == nil || n == 0 {
		return
	}
	for i := range b.Marks {
		if b.Marks[i].ID == id {
			b.Marks[i].N += n
			return
		}
	}
	b.Marks = append(b.Marks, Mark{ID: id, N: n})
}

// Seal records the invocation's end-to-end time as measured by the owning
// layer's own arithmetic (virtual clock, record fields). Sum() == Recorded()
// is the attribution invariant the tests enforce.
func (b *Budget) Seal(total simtime.Duration) {
	if b == nil {
		return
	}
	b.recorded = total
}

// Extend attributes d to segment id and grows the recorded end-to-end time by
// the same amount — for layers that lengthen an invocation after the machine
// sealed its budget (retry backoff, snapshot re-capture).
func (b *Budget) Extend(id string, d simtime.Duration) {
	if b == nil || d == 0 {
		return
	}
	b.Add(id, d)
	b.recorded += d
}

// Sum returns the total attributed time across all segments.
func (b *Budget) Sum() simtime.Duration {
	if b == nil {
		return 0
	}
	var s simtime.Duration
	for _, seg := range b.Segments {
		s += seg.Dur
	}
	return s
}

// Recorded returns the sealed (and possibly extended) end-to-end time.
func (b *Budget) Recorded() simtime.Duration {
	if b == nil {
		return 0
	}
	return b.recorded
}

// Get returns the duration attributed to segment id (0 when absent).
func (b *Budget) Get(id string) simtime.Duration {
	if b == nil {
		return 0
	}
	for _, seg := range b.Segments {
		if seg.ID == id {
			return seg.Dur
		}
	}
	return 0
}

// MarkCount returns the count of mark id (0 when absent).
func (b *Budget) MarkCount(id string) int64 {
	if b == nil {
		return 0
	}
	for _, m := range b.Marks {
		if m.ID == id {
			return m.N
		}
	}
	return 0
}

// Sorted returns the budget's segments ordered by decreasing duration (ties
// by id) — the "most expensive segment first" view -explain prints.
func (b *Budget) Sorted() []Segment {
	if b == nil {
		return nil
	}
	out := append([]Segment(nil), b.Segments...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SplitClusterLabel recognizes attribution labels minted by the cluster
// simulator — "<fn>@<node>/cluster[/<cell>]", where the optional cell tag
// (cluster.Config.XRayTag) names the swept cell, e.g.
// "pyaes@n01/cluster/4n/affinity/flash/toss". It returns the bare invocation
// label ("pyaes@n01") and the cell tag ("4n/affinity/flash/toss", empty when
// the run was untagged). ok reports whether the label is a cluster label at
// all; single-host labels pass through unrecognized.
func SplitClusterLabel(label string) (bare, cell string, ok bool) {
	if i := strings.Index(label, "/cluster/"); i >= 0 {
		return label[:i], label[i+len("/cluster/"):], true
	}
	if bare, found := strings.CutSuffix(label, "/cluster"); found {
		return bare, "", true
	}
	return label, "", false
}

// Package telemetry is the platform's virtual-time observability layer: a
// deterministic tracing and metrics subsystem shared by every component of
// the stack (microvm, core, platform, sched).
//
// Spans are stamped with simtime — the simulator's virtual clock — never the
// wall clock, so given the same seed two runs produce byte-for-byte
// identical trace output and tests can assert on traces directly. Each
// invocation forms one span tree ("track"): a root KindInvocation span with
// nested children for restore, mmaps, demand faults, DAMON activity,
// controller phases, queueing, and execution.
//
// The whole API is nil-safe: a nil *Tracer hands out nil *Span handles, and
// every Span method no-ops on a nil receiver. Instrumented hot paths
// therefore cost a single pointer comparison when tracing is disabled —
// package microvm's benchmarks guard that this stays negligible.
package telemetry

import (
	"strconv"
	"sync"

	"toss/internal/simtime"
)

// SpanKind classifies what a span measures. The kinds mirror the stages of
// one serverless invocation on this platform.
type SpanKind uint8

const (
	// KindInvocation is the per-invocation root span.
	KindInvocation SpanKind = iota
	// KindBoot is a fresh microVM boot (kernel + runtime init).
	KindBoot
	// KindSnapshotCreate is writing a snapshot (single-tier or tiered).
	KindSnapshotCreate
	// KindSnapshotRestore is a restore from snapshot (lazy, REAP, tiered).
	KindSnapshotRestore
	// KindMmap is establishing memory mappings at restore.
	KindMmap
	// KindPrefetch is REAP's sequential working-set prefetch read.
	KindPrefetch
	// KindPTEPopulate is REAP's eager page-table population.
	KindPTEPopulate
	// KindDemandFault is a demand-paging stall during execution.
	KindDemandFault
	// KindDAMONSample is the DAMON monitor attached over an execution.
	KindDAMONSample
	// KindDAMONAggregate is folding an observed pattern into the unified
	// pattern file.
	KindDAMONAggregate
	// KindControllerPhase is one TOSS controller phase serving an
	// invocation (initial / profiling / tiered), including Step III/IV
	// work on the convergence invocation.
	KindControllerPhase
	// KindExec is function execution (including fault stalls).
	KindExec
)

// String names the kind; the names double as Chrome trace categories.
func (k SpanKind) String() string {
	switch k {
	case KindInvocation:
		return "invocation"
	case KindBoot:
		return "boot"
	case KindSnapshotCreate:
		return "snapshot-create"
	case KindSnapshotRestore:
		return "snapshot-restore"
	case KindMmap:
		return "mmap"
	case KindPrefetch:
		return "prefetch"
	case KindPTEPopulate:
		return "pte-populate"
	case KindDemandFault:
		return "demand-fault"
	case KindDAMONSample:
		return "damon-sample"
	case KindDAMONAggregate:
		return "damon-aggregate"
	case KindControllerPhase:
		return "controller-phase"
	case KindExec:
		return "exec"
	default:
		return "SpanKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Attr is one ordered key/value annotation on a span. Values are stored
// pre-formatted as strings so export is deterministic (no map iteration, no
// float formatting surprises).
type Attr struct {
	Key string
	Val string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// I64 builds an integer attribute.
func I64(k string, v int64) Attr { return Attr{Key: k, Val: strconv.FormatInt(v, 10)} }

// F64 builds a float attribute with deterministic shortest formatting.
func F64(k string, v float64) Attr {
	return Attr{Key: k, Val: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Dur builds a duration attribute in virtual nanoseconds.
func Dur(k string, d simtime.Duration) Attr { return I64(k, d.Nanoseconds()) }

// Span is one timed operation in an invocation's span tree. Fields are
// exported for exporters and tests; mutate only through the methods.
type Span struct {
	tracer *Tracer
	// ID is the span's creation-order index within its tracer.
	ID int64
	// Parent is the parent span's ID (-1 for roots).
	Parent int64
	// Track groups a tree: every span of one invocation shares the root's
	// track number (roots are numbered in creation order).
	Track int64
	// Kind classifies the span.
	Kind SpanKind
	// Name is the human label ("restore", "pyaes", "mmap x3", ...).
	Name string
	// Start is the span's begin time on its track's virtual timeline.
	Start simtime.Duration
	// End is the span's end time; spans never ended stay at Start.
	End simtime.Duration
	// Attrs are the span's ordered annotations.
	Attrs []Attr
}

// Duration returns End - Start.
func (s *Span) Duration() simtime.Duration {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Tracer collects spans. The zero value is not usable; a nil *Tracer is the
// disabled tracer and is safe everywhere. Span creation is mutex-protected
// so concurrent invokers (package platform) can share one tracer — but
// creation *order* is only deterministic when invocations are serialized,
// which is what `faasim -trace` does.
type Tracer struct {
	mu     sync.Mutex
	spans  []*Span
	tracks int64
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Root opens a new span tree (one invocation) whose timeline starts at
// `start`. Returns nil on a nil tracer.
func (t *Tracer) Root(kind SpanKind, name string, start simtime.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		tracer: t,
		ID:     int64(len(t.spans)),
		Parent: -1,
		Track:  t.tracks,
		Kind:   kind,
		Name:   name,
		Start:  start,
		End:    start,
		Attrs:  attrs,
	}
	t.tracks++
	t.spans = append(t.spans, s)
	return s
}

// Child opens a nested span under s. Returns nil (a no-op handle) when s is
// nil, so instrumented code never branches on enablement itself.
func (s *Span) Child(kind SpanKind, name string, start simtime.Duration, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{
		tracer: t,
		ID:     int64(len(t.spans)),
		Parent: s.ID,
		Track:  s.Track,
		Kind:   kind,
		Name:   name,
		Start:  start,
		End:    start,
		Attrs:  attrs,
	}
	t.spans = append(t.spans, c)
	return c
}

// EndAt closes the span at the given virtual time.
func (s *Span) EndAt(at simtime.Duration) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.End = at
	s.tracer.mu.Unlock()
}

// Annotate appends attributes to the span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.Attrs = append(s.Attrs, attrs...)
	s.tracer.mu.Unlock()
}

// Spans returns the recorded spans in creation order. The returned slice is
// a snapshot; the spans themselves are shared.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Tracks returns the number of root spans recorded.
func (t *Tracer) Tracks() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracks
}

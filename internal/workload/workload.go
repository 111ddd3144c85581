// Package workload implements the ten serverless functions of the paper's
// Table I (drawn from FunctionBench and SeBS) as deterministic generators of
// page-granular access traces.
//
// A workload does not execute real Python; it emits the memory behaviour the
// real function exhibits — footprint growth with input size, hot-subset
// skew, streaming vs random phases, read/write mix, cache reuse, and
// guest-allocator placement jitter — because that access structure is the
// only signal snapshot systems (TOSS, REAP, FaaSnap) consume.
//
// Every function's trace has two parts:
//
//  1. a language-runtime prologue touching part of the boot image (the
//     Python interpreter, libraries), with a small hot core whose intensity
//     is a per-function knob — this is the memory that makes tiny-but-hot
//     fast-tier slices worthwhile for some functions (Table II's 92-96%
//     rows) and irrelevant for others (the 100% rows); and
//  2. the function body over heap allocations sized from the input level.
//
// Inputs I..IV follow Table I exactly; guest memory sizes are the paper's
// 128 MB / 256 MB / 1024 MB configurations with a 48 MB boot image.
package workload

import (
	"container/list"
	"fmt"
	"math/rand"
	"sync"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/lazyrand"
)

// Level selects one of the four input sizes of Table I.
type Level int

// The four input levels.
const (
	I Level = iota
	II
	III
	IV
)

// Levels lists all input levels in order.
var Levels = []Level{I, II, III, IV}

// String formats the level as the paper does (Roman numerals).
func (l Level) String() string {
	switch l {
	case I:
		return "I"
	case II:
		return "II"
	case III:
		return "III"
	case IV:
		return "IV"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Valid reports whether l is one of the four defined levels.
func (l Level) Valid() bool { return l >= I && l <= IV }

// BootImageBytes is the guest boot image (kernel + Python runtime +
// libraries) shared by all functions.
const BootImageBytes = 48 << 20

// Spec describes one Table I function.
type Spec struct {
	// Name is the paper's function name (e.g. "matmul").
	Name string
	// Description is Table I's description column.
	Description string
	// MemBytes is the configured guest memory size.
	MemBytes int64
	// InputType is Table I's input type column.
	InputType string
	// InputLabels are the four input descriptions.
	InputLabels [4]string
	// runtime tunes the interpreter prologue (see runtimeProfile).
	runtime runtimeProfile
	// body emits the function body's events.
	body func(b *builder, lv Level)

	// Layout memo: specs are registry singletons and the layout is a pure
	// function of MemBytes, so it is computed at most once.
	layoutOnce sync.Once
	layout     guest.Layout
	layoutErr  error
}

// Layout returns the guest memory layout for this function. The result is
// memoized per spec.
func (s *Spec) Layout() (guest.Layout, error) {
	s.layoutOnce.Do(func() {
		s.layout, s.layoutErr = guest.NewLayout(s.MemBytes, BootImageBytes)
	})
	return s.layout, s.layoutErr
}

// Trace generates the access trace of one invocation with the given input
// level. The seed drives guest-allocator jitter and run-to-run variability;
// the same (level, seed) pair always yields the same trace.
//
// Compiled traces are cached in a bounded LRU keyed by (function, level,
// seed): the experiment sweeps replay the same cells hundreds of times and
// determinism makes a cache hit indistinguishable from a recompile. The
// returned trace is shared — treat it (and its memoized views) as
// read-only.
func (s *Spec) Trace(lv Level, seed int64) (*access.Trace, error) {
	if !lv.Valid() {
		return nil, fmt.Errorf("workload: invalid input level %d", int(lv))
	}
	key := traceKey{fn: s.Name, lv: lv, seed: seed}
	if tr, ok := traceCache.lookup(key); ok {
		return tr, nil
	}
	layout, err := s.Layout()
	if err != nil {
		return nil, err
	}
	b := &builder{
		layout: layout,
		alloc:  guest.NewAllocator(layout, seed),
		rng:    lazyrand.New(seed ^ 0x7055_0001),
		trace:  &access.Trace{},
	}
	s.runtime.emit(b)
	s.body(b, lv)
	if b.err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, b.err)
	}
	traceCache.store(key, b.trace)
	return b.trace, nil
}

// traceKey identifies one compiled-trace cell.
type traceKey struct {
	fn   string
	lv   Level
	seed int64
}

// traceLRU is a mutex-guarded bounded LRU of compiled traces. Concurrent
// misses on the same key may compile the same trace twice; both results are
// identical (compilation is deterministic), so the last store simply wins —
// cheaper than singleflight for a compile that takes a few microseconds
// (about 2.5 µs on average over all forty function × level cells, 19 µs for
// the largest, json_load_dump IV; BenchmarkTraceCompileMix and
// BenchmarkTraceCompile on a 2-core Xeon host).
type traceLRU struct {
	mu    sync.Mutex
	limit int
	elems map[traceKey]*list.Element
	order *list.List // front = most recently used
}

type traceCacheEntry struct {
	key traceKey
	tr  *access.Trace
}

// traceCacheLimit bounds the cache to a few hundred cells; a full
// `tossctl all` run cycles through well under that many distinct
// (function, level, seed) combinations per experiment.
const traceCacheLimit = 256

var traceCache = traceLRU{
	limit: traceCacheLimit,
	elems: map[traceKey]*list.Element{},
	order: list.New(),
}

func (c *traceLRU) lookup(k traceKey) (*access.Trace, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.elems[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*traceCacheEntry).tr, true
}

func (c *traceLRU) store(k traceKey, tr *access.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[k]; ok {
		el.Value.(*traceCacheEntry).tr = tr
		c.order.MoveToFront(el)
		return
	}
	c.elems[k] = c.order.PushFront(&traceCacheEntry{key: k, tr: tr})
	for len(c.elems) > c.limit {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.elems, oldest.Value.(*traceCacheEntry).key)
	}
}

// len reports the number of cached traces (for tests).
func (c *traceLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.elems)
}

// runtimeProfile shapes the interpreter prologue.
type runtimeProfile struct {
	// warmBytes of the boot image are touched once or twice (imports,
	// relocations); always cheap and cold.
	warmBytes int64
	// hotBytes is the interpreter's hot core (bytecode dispatch, small
	// objects); its repeat count scales with how interpreter-bound the
	// function is.
	hotBytes int64
	// hotRepeat is the touch count per hot line.
	hotRepeat int
	// hotHit is the cache hit ratio of the hot core.
	hotHit float64
}

// defaultRuntime is a moderately interpreter-bound prologue.
func defaultRuntime(hotRepeat int) runtimeProfile {
	return runtimeProfile{
		warmBytes: 24 << 20,
		hotBytes:  4 << 20,
		hotRepeat: hotRepeat,
		// The interpreter's hot objects are mostly cache-resident; only the
		// residual miss traffic is tier-sensitive.
		hotHit: 0.95,
	}
}

func (r runtimeProfile) emit(b *builder) {
	warm := guest.Region{Start: b.layout.BootImage.Start, Pages: guest.PagesForBytes(r.warmBytes)}
	hot := guest.Region{Start: warm.End(), Pages: guest.PagesForBytes(r.hotBytes)}
	// Library scan: sequential, touched once; import machinery is mostly
	// compute (bytecode unmarshalling, relocation).
	b.event(access.Event{
		Region: warm, LinesPerPage: 8, Repeat: 1,
		Kind: access.Read, Pattern: access.Sequential, HitRatio: 0.2, CPUPerLine: 30,
	})
	// Interpreter hot core: bytecode dispatch over small objects — heavy
	// compute per touch, high cache residency.
	b.event(access.Event{
		Region: hot, LinesPerPage: 32, Repeat: r.hotRepeat,
		Kind: access.Read, Pattern: access.Random, HitRatio: r.hotHit, CPUPerLine: 20,
	})
}

// builder accumulates trace events and carries the allocator and rng.
type builder struct {
	layout guest.Layout
	alloc  *guest.Allocator
	rng    *rand.Rand
	trace  *access.Trace
	err    error
}

// allocBytes reserves heap, recording the first error and returning an
// empty region afterwards so workload code stays linear.
func (b *builder) allocBytes(n int64) guest.Region {
	if b.err != nil {
		return guest.Region{}
	}
	r, err := b.alloc.AllocBytes(n)
	if err != nil {
		b.err = err
		return guest.Region{}
	}
	return r
}

func (b *builder) event(e access.Event) {
	if b.err != nil || e.Region.Empty() {
		return
	}
	b.trace.Append(e)
}

// jitter returns n scaled by a seeded factor in [1-amp, 1+amp], at least 1.
// It models run-to-run execution variability (Observation #3).
func (b *builder) jitter(n int, amp float64) int {
	f := 1 + (b.rng.Float64()*2-1)*amp
	v := int(float64(n)*f + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// chunked splits a region into `parts` near-equal chunks and calls fn with
// each chunk and its index, letting workloads vary intensity across a
// buffer (hot fronts, cold tails).
func (b *builder) chunked(r guest.Region, parts int, fn func(chunk guest.Region, i int)) {
	if r.Empty() || parts < 1 {
		return
	}
	per := r.Pages / int64(parts)
	if per < 1 {
		per = 1
		parts = int(r.Pages)
	}
	for i := 0; i < parts; i++ {
		start := r.Start + guest.PageID(int64(i)*per)
		pages := per
		if i == parts-1 {
			pages = int64(r.End() - start)
		}
		if pages <= 0 {
			break
		}
		fn(guest.Region{Start: start, Pages: pages}, i)
	}
}

// seqRead emits a streaming read over r.
func (b *builder) seqRead(r guest.Region, repeat int, hit, cpu float64) {
	b.event(access.Event{
		Region: r, LinesPerPage: guest.LinesPerPage, Repeat: repeat,
		Kind: access.Read, Pattern: access.Sequential, HitRatio: hit, CPUPerLine: cpu,
	})
}

// seqWrite emits a streaming write over r.
func (b *builder) seqWrite(r guest.Region, repeat int, hit, cpu float64) {
	b.event(access.Event{
		Region: r, LinesPerPage: guest.LinesPerPage, Repeat: repeat,
		Kind: access.Write, Pattern: access.Sequential, HitRatio: hit, CPUPerLine: cpu,
	})
}

// randRead emits scattered reads over r touching lines/page per pass.
func (b *builder) randRead(r guest.Region, lines, repeat int, hit, cpu float64) {
	b.event(access.Event{
		Region: r, LinesPerPage: lines, Repeat: repeat,
		Kind: access.Read, Pattern: access.Random, HitRatio: hit, CPUPerLine: cpu,
	})
}

// randWrite emits scattered writes over r.
func (b *builder) randWrite(r guest.Region, lines, repeat int, hit, cpu float64) {
	b.event(access.Event{
		Region: r, LinesPerPage: lines, Repeat: repeat,
		Kind: access.Write, Pattern: access.Random, HitRatio: hit, CPUPerLine: cpu,
	})
}

// Package par provides a bounded worker pool with deterministic, ordered
// fan-out for the experiment suite.
//
// The central primitive is Map: it runs fn over every item on up to
// Workers goroutines but stores results by input index, so folding the
// result slice serially afterwards yields byte-identical output to a
// plain loop. Determinism therefore requires only that fn's side effects
// are order-independent (pure cells, or writes guarded by the caller);
// all aggregation belongs after the Map, in input order. Sink is the same
// contract for values cells hand back by name instead of by index.
//
// Pools nest safely. A Map call never blocks waiting for a worker slot:
// helpers are spawned only for slots available right now and the calling
// goroutine always participates in the work itself, so an inner Map
// issued from inside an outer Map's fn degrades to inline execution when
// the pool is saturated instead of deadlocking.
//
// Serial is the zero-worker pool: Map runs inline, in order, with early
// exit on the first error — exactly the loop it replaces. The suite
// drops to Serial automatically whenever a recorder or metrics sink is
// attached (mirroring faasim's -http/-trace forces-workers=1 rule),
// because those observers record events in arrival order.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of goroutines Map may use. The zero value (and
// Serial) runs everything inline on the caller.
type Pool struct {
	workers int
	// sem holds workers-1 helper slots; the caller is the final worker.
	// nil means serial.
	sem chan struct{}
}

// Serial is the inline pool: Map degenerates to an ordered loop with
// early exit on error. Shared and stateless; safe for concurrent use.
var Serial = &Pool{workers: 1}

// New returns a pool that runs at most workers goroutines at once
// (including the goroutine that calls Map). workers <= 1 yields a
// serial pool.
func New(workers int) *Pool {
	if workers <= 1 {
		return &Pool{workers: 1}
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers-1)}
}

// Workers reports the concurrency bound. A nil or zero-value pool is
// serial and reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Error wraps a failure from Map's fn with the input index it occurred
// at. When several items fail in a parallel run, Map reports the one
// with the lowest index — the same error a serial loop would have
// returned first.
type Error struct {
	Index int
	Err   error
}

// Error renders the failure with the input index it occurred at.
func (e *Error) Error() string { return fmt.Sprintf("item %d: %v", e.Index, e.Err) }

// Unwrap returns fn's error, so errors.Is and errors.As see through Map.
func (e *Error) Unwrap() error { return e.Err }

// Map applies fn to every item and returns the results in input order.
//
// On a serial pool it is a plain loop: items run in order and the first
// error stops the run. On a parallel pool all items are attempted even
// after a failure (cells are independent and cheap relative to
// scheduling a cancel), and the lowest-index error is returned so the
// reported failure does not depend on goroutine timing. Either way a
// non-nil error is an *Error identifying the failing item.
func Map[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	res := make([]R, len(items))
	if p == nil || p.sem == nil || len(items) <= 1 {
		for i, it := range items {
			r, err := fn(i, it)
			if err != nil {
				return res, &Error{Index: i, Err: err}
			}
			res[i] = r
		}
		return res, nil
	}

	errs := make([]error, len(items))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			res[i], errs[i] = fn(i, items[i])
		}
	}

	// Claim helper slots without blocking: when the pool is saturated
	// (e.g. this Map is nested inside another Map's fn) we simply run
	// everything on the calling goroutine.
	var wg sync.WaitGroup
spawn:
	for n := 0; n < len(items)-1; n++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				work()
			}()
		default:
			break spawn
		}
	}
	work() // the caller is always one of the workers
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return res, &Error{Index: i, Err: err}
		}
	}
	return res, nil
}

// For applies fn to every index in [0, n), with the same scheduling and
// error semantics as Map. Use it for loops whose results are written
// into caller-owned, index-addressed storage.
func For(p *Pool, n int, fn func(i int) error) error {
	_, err := Map(p, make([]struct{}, n), func(i int, _ struct{}) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

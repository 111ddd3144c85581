package fault

import (
	"fmt"
	"sync"
)

// BreakerState is one per-function circuit-breaker state.
type BreakerState int

const (
	// BreakerClosed admits the function normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects the function: it is not kept warm and does not
	// pin fast-tier pages until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one trial; its outcome closes or reopens.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// The breaker's counters are event counts, not wall-clock windows, so its
// behaviour is deterministic in virtual time: breakerThreshold consecutive
// faulted invocations trip it open, and an open breaker absorbs
// breakerCooldown rejected Allow queries before letting one trial through
// (half-open).
const (
	breakerThreshold = 3
	breakerCooldown  = 16
)

// Breaker is a per-function circuit breaker: a function whose invocations
// keep faulting stops being admitted to the keep-alive cache, so a failing
// function cannot pin fast-tier pages that healthy functions could use.
// Nil-safe: a nil breaker allows everything.
type Breaker struct {
	mu    sync.Mutex
	fns   map[string]*breakerFn
	trips int64
}

type breakerFn struct {
	state       BreakerState
	consecutive int
	cooldown    int
}

// NewBreaker returns a breaker with every function closed.
func NewBreaker() *Breaker {
	return &Breaker{fns: make(map[string]*breakerFn)}
}

// Allow reports whether the function may be admitted (to the keep-alive
// cache). An open breaker rejects and counts down its cooldown; when the
// cooldown is spent it turns half-open and admits one trial.
func (b *Breaker) Allow(fn string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.fns[fn]
	if st == nil {
		return true
	}
	switch st.state {
	case BreakerOpen:
		st.cooldown--
		if st.cooldown <= 0 {
			st.state = BreakerHalfOpen
			return true
		}
		return false
	default:
		return true
	}
}

// Record feeds one invocation outcome. Consecutive faulted invocations trip
// the breaker open; a clean outcome in the half-open trial closes it, a
// faulted one reopens it.
func (b *Breaker) Record(fn string, faulted bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.fns[fn]
	if st == nil {
		if !faulted {
			return
		}
		st = &breakerFn{}
		b.fns[fn] = st
	}
	if !faulted {
		st.state = BreakerClosed
		st.consecutive = 0
		return
	}
	switch st.state {
	case BreakerClosed:
		st.consecutive++
		if st.consecutive >= breakerThreshold {
			b.open(st)
		}
	case BreakerHalfOpen:
		b.open(st)
	case BreakerOpen:
		// Already open (a faulted invocation that was in flight before the
		// trip); stays open.
	}
}

func (b *Breaker) open(st *breakerFn) {
	st.state = BreakerOpen
	st.cooldown = breakerCooldown
	st.consecutive = 0
	b.trips++
}

// State returns the function's current state.
func (b *Breaker) State(fn string) BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st := b.fns[fn]; st != nil {
		return st.state
	}
	return BreakerClosed
}

// Trips returns how many times any function's breaker opened.
func (b *Breaker) Trips() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

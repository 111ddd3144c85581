package xray

import "sync"

// Collector gathers budgets from concurrently running invocations. It is the
// parallel-safe attribution sink: machines Observe their budget as they
// finish, in whatever order the worker pool produces them, and consumers
// fold the collected set through Aggregate, which is commutative — so a
// parallel run's report is byte-identical to a serial run's.
//
// The collector stores pointers, not copies: layers above the machine may
// legitimately extend a budget after it was observed (retry backoff, snapshot
// re-capture ride on the same invocation). Call Drain or Snapshot only after
// the invocations of interest have fully completed (e.g. after par.Map
// joins), never mid-flight.
type Collector struct {
	mu      sync.Mutex
	budgets []*Budget
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Observe appends a finished invocation's budget. Safe for concurrent use;
// nil collectors and nil budgets are ignored.
func (c *Collector) Observe(b *Budget) {
	if c == nil || b == nil {
		return
	}
	c.mu.Lock()
	c.budgets = append(c.budgets, b)
	c.mu.Unlock()
}

// Drain returns all collected budgets and resets the collector. The slice
// order reflects completion order and is NOT deterministic under a parallel
// pool — only feed it to commutative consumers (Aggregate).
func (c *Collector) Drain() []*Budget {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := c.budgets
	c.budgets = nil
	c.mu.Unlock()
	return out
}

// Snapshot returns a copy of the collected budget list without resetting —
// the dashboard's non-destructive read. The same order caveat as Drain
// applies.
func (c *Collector) Snapshot() []*Budget {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]*Budget(nil), c.budgets...)
	c.mu.Unlock()
	return out
}

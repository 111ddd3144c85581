// Package pricing models vendor serverless billing (§II-D) and the
// dynamically discounted tiered plan TOSS enables (§III-D).
//
// Vendors bill memory in $/GB-second over fixed-size memory bundles (128 MB
// increments on Lambda-class platforms), rounded up per billing quantum,
// plus a per-request fee. TOSS's proposition is a *tiered* plan: the same
// schedule applied per tier, with the slow tier discounted by the tier cost
// ratio — in the worst case (everything in DRAM) the customer pays today's
// price, in every other case strictly less (§III-D).
package pricing

import (
	"fmt"

	"toss/internal/simtime"
)

// Plan is a single-tier (DRAM-only) pricing schedule.
type Plan struct {
	// Name labels the plan.
	Name string
	// PerGBSecond is the memory-time price.
	PerGBSecond float64
	// PerMillionRequests is the request fee per 1e6 invocations.
	PerMillionRequests float64
	// IncrementBytes is the memory bundle granularity (128 MB).
	IncrementBytes int64
	// Quantum is the billing time granularity (1 ms on Lambda).
	Quantum simtime.Duration
}

// LambdaLike returns a Lambda-class schedule: $0.0000166667 per GB-second,
// $0.20 per million requests, 128 MB bundles, 1 ms quantum.
func LambdaLike() Plan {
	return Plan{
		Name:               "lambda-like",
		PerGBSecond:        0.0000166667,
		PerMillionRequests: 0.20,
		IncrementBytes:     128 << 20,
		Quantum:            simtime.Millisecond,
	}
}

// Validate checks the schedule.
func (p Plan) Validate() error {
	if p.PerGBSecond <= 0 {
		return fmt.Errorf("pricing: non-positive GB-second price")
	}
	if p.PerMillionRequests < 0 {
		return fmt.Errorf("pricing: negative request fee")
	}
	if p.IncrementBytes <= 0 {
		return fmt.Errorf("pricing: non-positive memory increment")
	}
	if p.Quantum <= 0 {
		return fmt.Errorf("pricing: non-positive quantum")
	}
	return nil
}

// roundUp rounds n up to a multiple of unit.
func roundUp(n, unit int64) int64 {
	return (n + unit - 1) / unit * unit
}

// BilledBytes rounds a memory size up to the bundle increment.
func (p Plan) BilledBytes(memBytes int64) int64 {
	if memBytes <= 0 {
		return p.IncrementBytes
	}
	return roundUp(memBytes, p.IncrementBytes)
}

// BilledDuration rounds an invocation duration up to the quantum.
func (p Plan) BilledDuration(d simtime.Duration) simtime.Duration {
	if d <= 0 {
		return p.Quantum
	}
	return simtime.Duration(roundUp(int64(d), int64(p.Quantum)))
}

// Invocation bills one invocation of a memBytes bundle running for d,
// excluding the request fee.
func (p Plan) Invocation(memBytes int64, d simtime.Duration) float64 {
	gb := float64(p.BilledBytes(memBytes)) / float64(1<<30)
	sec := p.BilledDuration(d).Seconds()
	return gb * sec * p.PerGBSecond
}

// PerMillion bills one million identical invocations, request fee included.
func (p Plan) PerMillion(memBytes int64, d simtime.Duration) float64 {
	return p.Invocation(memBytes, d)*1e6 + p.PerMillionRequests
}

// Tiered extends a plan with a discounted slow tier.
type Tiered struct {
	Plan
	// SlowFactor multiplies the GB-second price for slow-tier memory
	// (0.4 at the paper's 2.5x cost ratio).
	SlowFactor float64
}

// NewTiered derives the tiered plan from a base plan and the tier cost
// ratio.
func NewTiered(base Plan, costRatio float64) (Tiered, error) {
	if err := base.Validate(); err != nil {
		return Tiered{}, err
	}
	if costRatio < 1 {
		return Tiered{}, fmt.Errorf("pricing: cost ratio %v < 1", costRatio)
	}
	return Tiered{Plan: base, SlowFactor: 1 / costRatio}, nil
}

// Invocation bills one tiered invocation: fast and slow bytes are billed at
// their own rates over the (slowdown-inflated) duration. The fast+slow
// split is billed at page granularity inside the configured bundle — the
// "dynamically calculated and reduced memory price" of §III-D.
func (t Tiered) Invocation(fastBytes, slowBytes int64, d simtime.Duration) float64 {
	sec := t.BilledDuration(d).Seconds()
	// The bundle is rounded as a whole; the split inside it is exact.
	total := t.BilledBytes(fastBytes + slowBytes)
	if fastBytes > total {
		fastBytes = total
	}
	slow := total - fastBytes
	fastGB := float64(fastBytes) / float64(1<<30)
	slowGB := float64(slow) / float64(1<<30)
	return (fastGB + slowGB*t.SlowFactor) * sec * t.PerGBSecond
}

// PerMillion bills one million identical tiered invocations.
func (t Tiered) PerMillion(fastBytes, slowBytes int64, d simtime.Duration) float64 {
	return t.Invocation(fastBytes, slowBytes, d)*1e6 + t.PerMillionRequests
}

// Package simtime provides the virtual-time primitives used throughout the
// TOSS simulator. All latencies, setup times, and invocation durations in the
// repository are expressed in virtual nanoseconds accumulated by a Clock;
// nothing in the model reads the wall clock, so every experiment is exactly
// reproducible.
package simtime

import (
	"fmt"
	"time"
)

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so results format naturally, but is a distinct type to keep
// virtual and wall-clock time from mixing by accident.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Nanoseconds returns the duration as an integer nanosecond count.
func (d Duration) Nanoseconds() int64 { return int64(d) }

// Milliseconds returns the duration in milliseconds as a float.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration in seconds as a float.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts the virtual duration to a time.Duration for formatting.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats the duration like time.Duration does.
func (d Duration) String() string { return d.Std().String() }

// FromStd converts a time.Duration into a virtual Duration.
func FromStd(d time.Duration) Duration { return Duration(d) }

// Scale multiplies the duration by a dimensionless factor, rounding to the
// nearest nanosecond. Factors below zero are rejected because no model in
// this repository produces negative time.
func (d Duration) Scale(f float64) Duration {
	if f < 0 {
		panic(fmt.Sprintf("simtime: negative scale factor %v", f))
	}
	return Duration(float64(d)*f + 0.5)
}

// Clock accumulates virtual time for one execution context (for example one
// vCPU running one function invocation). The zero value is a clock at t=0.
//
// Clock is not safe for concurrent use; each concurrent invocation owns its
// own Clock, and shared-resource contention is modeled analytically (see
// package mem and disk) rather than by synchronizing clocks.
type Clock struct {
	now Duration
}

// NewClock returns a clock starting at t=0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Advance moves the clock forward by d and returns the new time. Negative
// advances panic: the simulator only ever moves forward.
func (c *Clock) Advance(d Duration) Duration {
	if d < 0 {
		panic(fmt.Sprintf("simtime: cannot advance clock by negative duration %v", d))
	}
	c.now += d
	return c.now
}

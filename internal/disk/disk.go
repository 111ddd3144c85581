// Package disk models the snapshot storage device: the paper's platform uses
// an Intel Optane DC SSD (sequential read up to 2,500 MB/s, write up to
// 2,200 MB/s, random read/write up to 550,000 IOPS).
//
// Two operations matter to snapshot-based serverless systems:
//
//   - bulk sequential reads, used by REAP to prefetch the working set into
//     memory at setup time, and
//   - random 4 KiB reads, the demand page faults taken during execution for
//     pages the snapshot did not prefetch.
//
// The paper drops the host page cache between invocations (§VI-A), so every
// access hits the device; the model does the same by never caching.
package disk

import (
	"fmt"

	"toss/internal/simtime"
)

// Config describes the storage device.
type Config struct {
	// SeqReadBytesPerSec is the sequential read throughput.
	SeqReadBytesPerSec float64
	// SeqWriteBytesPerSec is the sequential write throughput.
	SeqWriteBytesPerSec float64
	// RandReadLatency is the device-side latency of one 4 KiB random read.
	RandReadLatency simtime.Duration
	// RandReadIOPS caps random 4 KiB reads per second across the host.
	RandReadIOPS float64
	// ContentionBeta is the fractional latency increase per additional
	// concurrent invocation issuing I/O, on top of the IOPS cap.
	ContentionBeta float64
}

// DefaultConfig returns the paper's Optane DC SSD.
func DefaultConfig() Config {
	return Config{
		SeqReadBytesPerSec:  2500e6,
		SeqWriteBytesPerSec: 2200e6,
		RandReadLatency:     12 * simtime.Microsecond,
		RandReadIOPS:        550000,
		ContentionBeta:      0.35,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SeqReadBytesPerSec <= 0 || c.SeqWriteBytesPerSec <= 0 {
		return fmt.Errorf("disk: non-positive sequential throughput")
	}
	if c.RandReadLatency <= 0 {
		return fmt.Errorf("disk: non-positive random read latency")
	}
	if c.RandReadIOPS <= 0 {
		return fmt.Errorf("disk: non-positive IOPS")
	}
	if c.ContentionBeta < 0 {
		return fmt.Errorf("disk: negative contention beta")
	}
	return nil
}

// contention returns the latency multiplier at a concurrency level.
func (c Config) contention(concurrency int) float64 {
	if concurrency < 1 {
		concurrency = 1
	}
	return 1 + c.ContentionBeta*float64(concurrency-1)
}

// SequentialRead returns the time to stream n bytes from the device while
// `concurrency` invocations share it.
func (c Config) SequentialRead(n int64, concurrency int) simtime.Duration {
	if n <= 0 {
		return 0
	}
	sec := float64(n) / c.SeqReadBytesPerSec * c.contention(concurrency)
	return simtime.Duration(sec*float64(simtime.Second) + 0.5)
}

// SequentialWrite returns the time to stream n bytes to the device.
func (c Config) SequentialWrite(n int64, concurrency int) simtime.Duration {
	if n <= 0 {
		return 0
	}
	sec := float64(n) / c.SeqWriteBytesPerSec * c.contention(concurrency)
	return simtime.Duration(sec*float64(simtime.Second) + 0.5)
}

// RandomRead4K returns the time for `count` independent 4 KiB random reads
// (demand page faults). The cost is the larger of the latency path and the
// IOPS-throughput path so that large fault storms degrade gracefully, then
// scaled by the concurrency factor.
func (c Config) RandomRead4K(count int64, concurrency int) simtime.Duration {
	if count <= 0 {
		return 0
	}
	latency := float64(c.RandReadLatency) * float64(count)
	throughput := float64(count) / c.RandReadIOPS * float64(simtime.Second)
	cost := latency
	if throughput > cost {
		cost = throughput
	}
	return simtime.Duration(cost*c.contention(concurrency) + 0.5)
}

// StallCost scales an injected device stall by the same contention
// multiplier real reads pay at this concurrency — a device hiccup hurts more
// on a loaded host.
func (c Config) StallCost(base simtime.Duration, concurrency int) simtime.Duration {
	if base <= 0 {
		return 0
	}
	return simtime.Duration(float64(base)*c.contention(concurrency) + 0.5)
}

// FaultCost returns the time for demand-faulting `pages` guest pages.
func (c Config) FaultCost(pages int64, concurrency int) simtime.Duration {
	return c.RandomRead4K(pages, concurrency)
}

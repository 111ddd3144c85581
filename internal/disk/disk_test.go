package disk

import (
	"testing"
	"testing/quick"

	"toss/internal/simtime"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.SeqReadBytesPerSec = 0 },
		func(c *Config) { c.SeqWriteBytesPerSec = -1 },
		func(c *Config) { c.RandReadLatency = 0 },
		func(c *Config) { c.RandReadIOPS = 0 },
		func(c *Config) { c.ContentionBeta = -0.1 },
	}
	for i, m := range mutations {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSequentialReadThroughput(t *testing.T) {
	c := DefaultConfig()
	// 2500 MB at 2500 MB/s should take ~1 s.
	got := c.SequentialRead(2500e6, 1)
	if got < 999*simtime.Millisecond || got > 1001*simtime.Millisecond {
		t.Errorf("SequentialRead(2.5GB) = %v, want ~1s", got)
	}
	if c.SequentialRead(0, 1) != 0 || c.SequentialRead(-5, 1) != 0 {
		t.Error("non-positive byte counts should cost 0")
	}
}

func TestSequentialWriteSlowerThanRead(t *testing.T) {
	c := DefaultConfig()
	n := int64(1 << 30)
	if c.SequentialWrite(n, 1) <= c.SequentialRead(n, 1) {
		t.Error("write not slower than read")
	}
}

func TestRandomRead4KLatencyPath(t *testing.T) {
	c := DefaultConfig()
	// A single fault costs the device latency.
	if got := c.RandomRead4K(1, 1); got != c.RandReadLatency {
		t.Errorf("one fault = %v, want %v", got, c.RandReadLatency)
	}
	if c.RandomRead4K(0, 1) != 0 {
		t.Error("zero faults should cost 0")
	}
}

func TestRandomRead4KThroughputPath(t *testing.T) {
	c := DefaultConfig()
	// 550K IOPS with 12µs latency: latency path = 6.6s for 550K ops, and the
	// throughput path is 1s, so latency dominates here. Force the throughput
	// path with a faster device.
	c.RandReadLatency = 1 * simtime.Microsecond
	got := c.RandomRead4K(550000, 1)
	if got < 999*simtime.Millisecond || got > 1001*simtime.Millisecond {
		t.Errorf("IOPS-bound faults = %v, want ~1s", got)
	}
}

func TestConcurrencyScalesCosts(t *testing.T) {
	c := DefaultConfig()
	one := c.RandomRead4K(1000, 1)
	twenty := c.RandomRead4K(1000, 20)
	wantFactor := 1 + c.ContentionBeta*19
	gotFactor := float64(twenty) / float64(one)
	if gotFactor < wantFactor*0.99 || gotFactor > wantFactor*1.01 {
		t.Errorf("contention factor = %v, want %v", gotFactor, wantFactor)
	}
	if c.SequentialRead(1<<20, 0) != c.SequentialRead(1<<20, 1) {
		t.Error("concurrency 0 not clamped to 1")
	}
}

func TestFaultCostMatchesRandomRead(t *testing.T) {
	c := DefaultConfig()
	if c.FaultCost(123, 3) != c.RandomRead4K(123, 3) {
		t.Error("FaultCost != RandomRead4K")
	}
}

// Property: all costs are monotone in their size argument.
func TestCostMonotoneProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(a, b uint32) bool {
		lo, hi := int64(a%1_000_000), int64(b%1_000_000)
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.SequentialRead(lo, 1) <= c.SequentialRead(hi, 1) &&
			c.RandomRead4K(lo, 1) <= c.RandomRead4K(hi, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: random 4K reads are never cheaper than the IOPS bound allows.
func TestRandomReadRespectsIOPSProperty(t *testing.T) {
	c := DefaultConfig()
	f := func(n uint32) bool {
		count := int64(n % 2_000_000)
		got := c.RandomRead4K(count, 1)
		minimum := simtime.Duration(float64(count) / c.RandReadIOPS * float64(simtime.Second))
		return got >= minimum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

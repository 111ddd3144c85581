package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDurationUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d, want 1000", Microsecond)
	}
	if Millisecond != 1_000_000 {
		t.Fatalf("Millisecond = %d, want 1e6", Millisecond)
	}
	if Second != 1_000_000_000 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Nanoseconds(); got != 1_500_000 {
		t.Errorf("Nanoseconds() = %d, want 1500000", got)
	}
	if got := d.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := d.Seconds(); got != 0.0015 {
		t.Errorf("Seconds() = %v, want 0.0015", got)
	}
}

func TestDurationString(t *testing.T) {
	if got := (2500 * Microsecond).String(); got != "2.5ms" {
		t.Errorf("String() = %q, want 2.5ms", got)
	}
}

func TestFromStd(t *testing.T) {
	if got := FromStd(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromStd(3ms) = %v, want 3ms", got)
	}
}

func TestScale(t *testing.T) {
	d := 100 * Nanosecond
	if got := d.Scale(2.5); got != 250 {
		t.Errorf("Scale(2.5) = %v, want 250ns", got)
	}
	if got := d.Scale(0); got != 0 {
		t.Errorf("Scale(0) = %v, want 0", got)
	}
	// Rounding, not truncation.
	if got := (3 * Nanosecond).Scale(0.5); got != 2 {
		t.Errorf("Scale rounding: got %v, want 2", got)
	}
}

func TestScaleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(-1) did not panic")
		}
	}()
	Duration(1).Scale(-1)
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(10 * Microsecond)
	c.Advance(5 * Microsecond)
	if got := c.Now(); got != 15*Microsecond {
		t.Errorf("Now() = %v, want 15µs", got)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

// Property: advancing by a then b equals advancing by a+b.
func TestClockAdvanceAdditiveProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		c1, c2 := NewClock(), NewClock()
		c1.Advance(Duration(a))
		c1.Advance(Duration(b))
		c2.Advance(Duration(a) + Duration(b))
		return c1.Now() == c2.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Scale by integer factor equals repeated addition.
func TestScaleIntegerProperty(t *testing.T) {
	f := func(base uint16, n uint8) bool {
		d := Duration(base)
		want := Duration(0)
		for i := 0; i < int(n); i++ {
			want += d
		}
		return d.Scale(float64(n)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package pricing

import (
	"math"
	"testing"
	"testing/quick"

	"toss/internal/simtime"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLambdaLikeValid(t *testing.T) {
	if err := LambdaLike().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	mutations := []func(*Plan){
		func(p *Plan) { p.PerGBSecond = 0 },
		func(p *Plan) { p.PerMillionRequests = -1 },
		func(p *Plan) { p.IncrementBytes = 0 },
		func(p *Plan) { p.Quantum = 0 },
	}
	for i, m := range mutations {
		p := LambdaLike()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestBilledBytesRounding(t *testing.T) {
	p := LambdaLike()
	cases := []struct{ in, want int64 }{
		{0, 128 << 20},
		{1, 128 << 20},
		{128 << 20, 128 << 20},
		{128<<20 + 1, 256 << 20},
		{1000 << 20, 1024 << 20},
	}
	for _, c := range cases {
		if got := p.BilledBytes(c.in); got != c.want {
			t.Errorf("BilledBytes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBilledDurationRounding(t *testing.T) {
	p := LambdaLike()
	if got := p.BilledDuration(0); got != simtime.Millisecond {
		t.Errorf("zero duration billed as %v", got)
	}
	if got := p.BilledDuration(1500 * simtime.Microsecond); got != 2*simtime.Millisecond {
		t.Errorf("1.5ms billed as %v", got)
	}
	if got := p.BilledDuration(simtime.Millisecond); got != simtime.Millisecond {
		t.Errorf("exact quantum billed as %v", got)
	}
}

func TestInvocationPrice(t *testing.T) {
	p := LambdaLike()
	// 1 GiB for exactly 1 s: the listed GB-second price.
	got := p.Invocation(1<<30, simtime.Second)
	if !approx(got, 0.0000166667, 1e-12) {
		t.Errorf("1GB-1s bill = %v", got)
	}
	// 128 MB for 100 ms = 1/8 GB * 0.1 s.
	got = p.Invocation(128<<20, 100*simtime.Millisecond)
	if !approx(got, 0.0000166667/80, 1e-12) {
		t.Errorf("128MB-100ms bill = %v", got)
	}
}

func TestPerMillionIncludesRequestFee(t *testing.T) {
	p := LambdaLike()
	inv := p.Invocation(128<<20, 10*simtime.Millisecond)
	if got := p.PerMillion(128<<20, 10*simtime.Millisecond); !approx(got, inv*1e6+0.20, 1e-9) {
		t.Errorf("PerMillion = %v", got)
	}
}

func TestNewTiered(t *testing.T) {
	tp, err := NewTiered(LambdaLike(), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if tp.SlowFactor != 0.4 {
		t.Errorf("SlowFactor = %v, want 0.4", tp.SlowFactor)
	}
	if _, err := NewTiered(LambdaLike(), 0.5); err == nil {
		t.Error("ratio < 1 accepted")
	}
	bad := LambdaLike()
	bad.Quantum = 0
	if _, err := NewTiered(bad, 2.5); err == nil {
		t.Error("invalid base plan accepted")
	}
}

func TestTieredInvocationEndpoints(t *testing.T) {
	tp, _ := NewTiered(LambdaLike(), 2.5)
	mem := int64(1 << 30)
	d := simtime.Second
	dramOnly := tp.Plan.Invocation(mem, d)
	// All fast == DRAM-only price.
	if got := tp.Invocation(mem, 0, d); !approx(got, dramOnly, 1e-12) {
		t.Errorf("all-fast tiered bill %v != dram %v", got, dramOnly)
	}
	// All slow, no slowdown == 0.4x.
	if got := tp.Invocation(0, mem, d); !approx(got, dramOnly*0.4, 1e-12) {
		t.Errorf("all-slow bill = %v, want %v", got, dramOnly*0.4)
	}
}

func TestTieredPerMillion(t *testing.T) {
	tp, _ := NewTiered(LambdaLike(), 2.5)
	inv := tp.Invocation(100<<20, 900<<20, 50*simtime.Millisecond)
	got := tp.PerMillion(100<<20, 900<<20, 50*simtime.Millisecond)
	if !approx(got, inv*1e6+0.20, 1e-9) {
		t.Errorf("tiered PerMillion = %v", got)
	}
}

// Property: the tiered bill is monotone — more slow bytes never cost more,
// and it is never above the DRAM-only bill at equal duration.
func TestTieredMonotoneProperty(t *testing.T) {
	tp, _ := NewTiered(LambdaLike(), 2.5)
	f := func(memRaw, slowARaw, slowBRaw uint16, ms uint16) bool {
		mem := int64(memRaw%2048+1) << 20
		a := int64(slowARaw) << 20 % (mem + 1)
		b := int64(slowBRaw) << 20 % (mem + 1)
		if a > b {
			a, b = b, a
		}
		d := simtime.Duration(ms+1) * simtime.Millisecond
		billA := tp.Invocation(mem-a, a, d)
		billB := tp.Invocation(mem-b, b, d)
		dram := tp.Plan.Invocation(mem, d)
		return billB <= billA+1e-15 && billA <= dram+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

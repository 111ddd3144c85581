package xray

import (
	"testing"

	"toss/internal/simtime"
)

func TestNilBudgetIsNoOp(t *testing.T) {
	var b *Budget
	b.Add(SegExecCPU, simtime.Millisecond)
	b.Mark(MarkMajorFaults, 3)
	b.Seal(simtime.Second)
	b.Extend(SegRetryBackoff, simtime.Millisecond)
	if b.Sum() != 0 || b.Recorded() != 0 {
		t.Fatal("nil budget accessors must return zero")
	}
}

func TestAddAccumulatesAndKeepsCausalOrder(t *testing.T) {
	b := New("fn")
	b.Add(SegRestoreVMLoad, 4*simtime.Millisecond)
	b.Add(SegExecCPU, 10*simtime.Millisecond)
	b.Add(SegRestoreVMLoad, simtime.Millisecond) // accumulates, no new entry
	b.Add(SegExecMemFast, 0)                     // dropped
	if len(b.Segments) != 2 {
		t.Fatalf("want 2 segments, got %d: %v", len(b.Segments), b.Segments)
	}
	if b.Segments[0].ID != SegRestoreVMLoad || b.Segments[1].ID != SegExecCPU {
		t.Fatalf("causal order lost: %v", b.Segments)
	}
	if got := b.Segments[0].Dur; got != 5*simtime.Millisecond {
		t.Fatalf("accumulate: want 5ms, got %v", got)
	}
	if b.Sum() != 15*simtime.Millisecond {
		t.Fatalf("sum: want 15ms, got %v", b.Sum())
	}
}

func TestSealAndExtend(t *testing.T) {
	b := New("fn")
	b.Add(SegExecCPU, 10*simtime.Millisecond)
	b.Seal(10 * simtime.Millisecond)
	if b.Sum() != b.Recorded() {
		t.Fatalf("sealed budget should balance: sum %v recorded %v", b.Sum(), b.Recorded())
	}
	b.Extend(SegRetryBackoff, 3*simtime.Millisecond)
	if b.Sum() != 13*simtime.Millisecond || b.Recorded() != 13*simtime.Millisecond {
		t.Fatalf("extend must grow both sides: sum %v recorded %v", b.Sum(), b.Recorded())
	}
	b.Extend(SegRetryBackoff, 0) // no-op
	if b.Recorded() != 13*simtime.Millisecond {
		t.Fatal("zero extend must not move recorded")
	}
}

func TestMarks(t *testing.T) {
	b := New("fn")
	b.Mark(MarkMajorFaults, 2)
	b.Mark(MarkMajorFaults, 3)
	b.Mark(MarkRetries, 0) // dropped
	if len(b.Marks) != 1 || b.Marks[0].ID != MarkMajorFaults || b.Marks[0].N != 5 {
		t.Fatalf("mark accumulate: want one %s mark of 5, got %v", MarkMajorFaults, b.Marks)
	}
	if b.Sum() != 0 {
		t.Fatal("marks must not enter the duration sum")
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Observe(New("fn")) // must not panic
	if c.Drain() != nil || c.Snapshot() != nil {
		t.Fatal("nil collector accessors must return zero values")
	}
}

func TestCollectorDrainAndSnapshot(t *testing.T) {
	c := NewCollector()
	c.Observe(nil) // dropped
	c.Observe(New("a"))
	c.Observe(New("b"))
	if len(c.budgets) != 2 {
		t.Fatalf("len: want 2, got %d", len(c.budgets))
	}
	snap := c.Snapshot()
	if len(snap) != 2 || len(c.budgets) != 2 {
		t.Fatal("Snapshot must be non-destructive")
	}
	got := c.Drain()
	if len(got) != 2 || len(c.budgets) != 0 {
		t.Fatal("Drain must return and clear")
	}
	if c.Drain() != nil {
		t.Fatal("second Drain must be empty")
	}
}

func TestSplitClusterLabel(t *testing.T) {
	cases := []struct {
		label, bare, cell string
		ok                bool
	}{
		{"pyaes@n01/cluster/4n/affinity/flash/toss", "pyaes@n01", "4n/affinity/flash/toss", true},
		{"compress@n02/cluster", "compress@n02", "", true},
		{"alpha", "alpha", "", false},
		{"beta@host", "beta@host", "", false},
	}
	for _, c := range cases {
		bare, cell, ok := SplitClusterLabel(c.label)
		if bare != c.bare || cell != c.cell || ok != c.ok {
			t.Errorf("SplitClusterLabel(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.label, bare, cell, ok, c.bare, c.cell, c.ok)
		}
	}
}

package xray

import (
	"reflect"
	"testing"

	"toss/internal/simtime"
)

// sampleBudgets builds a deterministic set of budgets spanning two labels,
// with marks and overlapping segment ids.
func sampleBudgets() []*Budget {
	a1 := New("alpha")
	a1.Add(SegBootKernel, 40*simtime.Millisecond)
	a1.Add(SegExecCPU, 10*simtime.Millisecond)
	a1.Mark(MarkMajorFaults, 7)
	a1.Seal(50 * simtime.Millisecond)

	a2 := New("alpha")
	a2.Add(SegRestoreVMLoad, 4*simtime.Millisecond)
	a2.Add(SegExecCPU, 11*simtime.Millisecond)
	a2.Mark(MarkMajorFaults, 2)
	a2.Seal(15 * simtime.Millisecond)

	b1 := New("beta")
	b1.Add(SegExecCPU, 5*simtime.Millisecond)
	b1.Add(SegExecMemSlow, 20*simtime.Millisecond)
	b1.Mark(MarkRetries, 1)
	b1.Seal(25 * simtime.Millisecond)

	return []*Budget{a1, a2, b1}
}

func TestAggregateOrderIndependence(t *testing.T) {
	base := sampleBudgets()
	want := Aggregate("exp", base)
	// Every permutation of three budgets must aggregate identically —
	// the property that keeps parallel runs byte-identical to serial.
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		shuffled := []*Budget{base[p[0]], base[p[1]], base[p[2]]}
		got := Aggregate("exp", shuffled)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %v changed the report:\ngot  %+v\nwant %+v", p, got, want)
		}
	}
}

func TestAggregateContents(t *testing.T) {
	rep := Aggregate("exp", sampleBudgets())
	if rep.Records != 3 || rep.Total != 90*simtime.Millisecond {
		t.Fatalf("totals: records %d total %v", rep.Records, rep.Total)
	}
	if len(rep.Functions) != 2 || rep.Functions[0].Label != "alpha" || rep.Functions[1].Label != "beta" {
		t.Fatalf("labels must be sorted: %+v", rep.Functions)
	}
	alpha := rep.Functions[0]
	if alpha.Records != 2 || alpha.Total != 65*simtime.Millisecond {
		t.Fatalf("alpha: %+v", alpha)
	}
	// Segments sorted by id; exec.cpu accumulated across both budgets.
	var cpu *SegmentStat
	for i := range alpha.Segments {
		if alpha.Segments[i].ID == SegExecCPU {
			cpu = &alpha.Segments[i]
		}
	}
	if cpu == nil || cpu.Total != 21*simtime.Millisecond || cpu.Count != 2 {
		t.Fatalf("exec.cpu aggregate: %+v", cpu)
	}
	if alpha.Marks[0].ID != MarkMajorFaults || alpha.Marks[0].N != 9 {
		t.Fatalf("marks aggregate: %+v", alpha.Marks)
	}
}

func TestAggregateSkipsNil(t *testing.T) {
	rep := Aggregate("exp", []*Budget{nil, New("fn"), nil})
	if rep.Records != 1 {
		t.Fatalf("nil budgets must be skipped: %+v", rep)
	}
}

func TestTopSegments(t *testing.T) {
	rep := Aggregate("exp", sampleBudgets())
	top := rep.TopSegments(3)
	if len(top) != 3 {
		t.Fatalf("want 3 hot spots, got %d", len(top))
	}
	// Hottest is alpha/boot.kernel at 40ms.
	if top[0].Label != "alpha" || top[0].Segment != SegBootKernel || top[0].Total != 40*simtime.Millisecond {
		t.Fatalf("hottest: %+v", top[0])
	}
	wantShare := float64(40*simtime.Millisecond) / float64(90*simtime.Millisecond)
	if top[0].Share != wantShare {
		t.Fatalf("share: got %v want %v", top[0].Share, wantShare)
	}
	// k=0 means unlimited.
	if all := rep.TopSegments(0); len(all) != 5 {
		t.Fatalf("k=0 should return all cells, got %d", len(all))
	}
}

package wstrack

import (
	"testing"
	"testing/quick"

	"toss/internal/access"
	"toss/internal/guest"
)

func traceTouching(regions ...guest.Region) *access.Trace {
	var tr access.Trace
	for _, r := range regions {
		tr.Append(access.Event{
			Region: r, LinesPerPage: 1, Repeat: 1,
			Kind: access.Read, Pattern: access.Sequential,
		})
	}
	return &tr
}

func TestWorkingSet(t *testing.T) {
	tr := traceTouching(guest.Region{Start: 4, Pages: 2}, guest.Region{Start: 6, Pages: 2}, guest.Region{Start: 20, Pages: 1})
	ws := WorkingSet(tr)
	want := []guest.Region{{Start: 4, Pages: 4}, {Start: 20, Pages: 1}}
	if len(ws) != 2 || ws[0] != want[0] || ws[1] != want[1] {
		t.Errorf("WorkingSet = %v, want %v", ws, want)
	}
	if got := WorkingSetPages(tr); got != 5 {
		t.Errorf("WorkingSetPages = %d, want 5", got)
	}
}

func TestWorkingSetMincoreInflates(t *testing.T) {
	tr := traceTouching(guest.Region{Start: 5, Pages: 1})
	ws := WorkingSetMincore(tr, 8, 1000)
	// Start rounds down to the 4-page cluster, end overshoots by the
	// 8-page readahead window: [4, 14).
	want := guest.Region{Start: 4, Pages: 10}
	if len(ws) != 1 || ws[0] != want {
		t.Errorf("mincore WS = %v, want [%v]", ws, want)
	}
	// Inflation never shrinks the true working set.
	if len(Missing(WorkingSet(tr), ws)) != 0 {
		t.Error("mincore WS does not cover true WS")
	}
}

func TestWorkingSetMincoreClampsToGuest(t *testing.T) {
	tr := traceTouching(guest.Region{Start: 9, Pages: 1})
	ws := WorkingSetMincore(tr, 8, 10)
	if len(ws) != 1 || ws[0].End() != 10 {
		t.Errorf("mincore WS exceeded guest: %v", ws)
	}
}

func TestWorkingSetMincoreReadaheadClamp(t *testing.T) {
	tr := traceTouching(guest.Region{Start: 3, Pages: 1})
	ws := WorkingSetMincore(tr, 0, 100) // readahead < 1 clamps to 1
	// Cluster start 0, end 4+1: [0,5).
	if len(ws) != 1 || ws[0] != (guest.Region{Start: 0, Pages: 5}) {
		t.Errorf("ws = %v", ws)
	}
}

func TestMissing(t *testing.T) {
	want := []guest.Region{{Start: 0, Pages: 10}}
	have := []guest.Region{{Start: 2, Pages: 3}, {Start: 7, Pages: 1}}
	got := Missing(want, have)
	exp := []guest.Region{{Start: 0, Pages: 2}, {Start: 5, Pages: 2}, {Start: 8, Pages: 2}}
	if len(got) != len(exp) {
		t.Fatalf("Missing = %v, want %v", got, exp)
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("Missing = %v, want %v", got, exp)
		}
	}
}

func TestMissingFullCoverage(t *testing.T) {
	want := []guest.Region{{Start: 5, Pages: 5}}
	have := []guest.Region{{Start: 0, Pages: 20}}
	if got := Missing(want, have); got != nil {
		t.Errorf("Missing with full coverage = %v", got)
	}
}

func TestMissingNoCoverage(t *testing.T) {
	want := []guest.Region{{Start: 5, Pages: 5}}
	got := Missing(want, nil)
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("Missing with no coverage = %v", got)
	}
}

// TestCoverage checks how much of a wanted set a working set leaves to
// demand-fault: half of it here, and nothing of an empty one.
func TestCoverage(t *testing.T) {
	want := []guest.Region{{Start: 0, Pages: 10}}
	if got := guest.TotalPages(Missing(want, []guest.Region{{Start: 0, Pages: 5}})); got != 5 {
		t.Errorf("%d pages missing, want 5", got)
	}
	if got := Missing(nil, nil); len(got) != 0 {
		t.Errorf("Missing(nil, nil) = %v, want none", got)
	}
}

// Property: Missing(want, have) ∪ (want ∩ have) covers exactly `want`, and
// Missing pages never appear in `have`.
func TestMissingPartitionProperty(t *testing.T) {
	f := func(wantRaw, haveRaw []uint8) bool {
		toRegions := func(raw []uint8) []guest.Region {
			var rs []guest.Region
			for _, x := range raw {
				rs = append(rs, guest.Region{Start: guest.PageID(x % 48), Pages: int64(x%7) + 1})
			}
			return rs
		}
		want := guest.NormalizeRegions(toRegions(wantRaw))
		have := guest.NormalizeRegions(toRegions(haveRaw))
		missing := Missing(want, have)

		inSet := func(p guest.PageID, set []guest.Region) bool {
			for _, r := range set {
				if p >= r.Start && p < r.End() {
					return true
				}
			}
			return false
		}
		for p := guest.PageID(0); p < 64; p++ {
			wantHas := inSet(p, want)
			haveHas := inSet(p, have)
			missHas := inSet(p, missing)
			if missHas != (wantHas && !haveHas) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mincore inflation is a superset of the uffd working set.
func TestMincoreSupersetProperty(t *testing.T) {
	f := func(raw []uint8, ra uint8) bool {
		var regions []guest.Region
		for _, x := range raw {
			regions = append(regions, guest.Region{Start: guest.PageID(x % 100), Pages: int64(x%5) + 1})
		}
		if len(regions) == 0 {
			return true
		}
		tr := traceTouching(regions...)
		inflated := WorkingSetMincore(tr, int64(ra%16)+1, 128)
		return len(Missing(WorkingSet(tr), inflated)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package snapshot

import (
	"testing"
	"testing/quick"

	"toss/internal/guest"
)

func tieredFrom(t *testing.T, resident, slow []guest.Region) *Tiered {
	if t != nil {
		t.Helper()
	}
	s := &Single{Function: "f", Memory: NewMemory("f", 128, resident)}
	return BuildTiered(s, slowPlacement(s, slow...))
}

func TestDiffTieredIdentical(t *testing.T) {
	a := tieredFrom(t, []guest.Region{{Start: 0, Pages: 40}}, []guest.Region{{Start: 10, Pages: 20}})
	b := tieredFrom(t, []guest.Region{{Start: 0, Pages: 40}}, []guest.Region{{Start: 10, Pages: 20}})
	d := DiffTiered(a, b)
	if d.ReusedPages != 40 || d.MovedPages != 0 || d.AddedPages != 0 || d.RemovedPages != 0 {
		t.Errorf("identical diff = %+v", d)
	}
	if d.RewrittenPages() != 0 {
		t.Errorf("RewrittenPages = %d", d.RewrittenPages())
	}
}

func TestDiffTieredMoves(t *testing.T) {
	old := tieredFrom(t, []guest.Region{{Start: 0, Pages: 40}}, []guest.Region{{Start: 0, Pages: 20}})
	new := tieredFrom(t, []guest.Region{{Start: 0, Pages: 40}}, []guest.Region{{Start: 10, Pages: 20}})
	d := DiffTiered(old, new)
	// Pages [0,10): slow->fast (moved); [10,20): slow->slow (reused);
	// [20,30): fast->slow (moved); [30,40): fast->fast (reused).
	if d.MovedPages != 20 || d.ReusedPages != 20 {
		t.Errorf("diff = %+v, want 20 moved / 20 reused", d)
	}
}

func TestDiffTieredGrowth(t *testing.T) {
	old := tieredFrom(t, []guest.Region{{Start: 0, Pages: 20}}, nil)
	new := tieredFrom(t, []guest.Region{{Start: 0, Pages: 50}}, []guest.Region{{Start: 40, Pages: 10}})
	d := DiffTiered(old, new)
	if d.AddedPages != 30 {
		t.Errorf("AddedPages = %d, want 30", d.AddedPages)
	}
	if d.ReusedPages != 20 {
		t.Errorf("ReusedPages = %d, want 20", d.ReusedPages)
	}
	if d.RemovedPages != 0 {
		t.Errorf("RemovedPages = %d", d.RemovedPages)
	}
}

func TestDiffTieredShrink(t *testing.T) {
	old := tieredFrom(t, []guest.Region{{Start: 0, Pages: 50}}, nil)
	new := tieredFrom(t, []guest.Region{{Start: 0, Pages: 20}}, nil)
	d := DiffTiered(old, new)
	if d.RemovedPages != 30 || d.ReusedPages != 20 {
		t.Errorf("diff = %+v", d)
	}
}

// Property: page accounting is exact — reused+moved+added equals the new
// snapshot's page count, reused+moved+removed equals the old's.
func TestDiffTieredAccountingProperty(t *testing.T) {
	toRegions := func(raw []uint8) []guest.Region {
		var rs []guest.Region
		for _, x := range raw {
			rs = append(rs, guest.Region{Start: guest.PageID(x % 48), Pages: int64(x%6) + 1})
		}
		return rs
	}
	f := func(resOld, slowOld, resNew, slowNew []uint8) bool {
		old := tieredFrom(nil, toRegions(resOld), toRegions(slowOld))
		new := tieredFrom(nil, toRegions(resNew), toRegions(slowNew))
		d := DiffTiered(old, new)
		newPages := int64(len(new.FastMem.Pages) + len(new.SlowMem.Pages))
		oldPages := int64(len(old.FastMem.Pages) + len(old.SlowMem.Pages))
		return d.ReusedPages+d.MovedPages+d.AddedPages == newPages &&
			d.ReusedPages+d.MovedPages+d.RemovedPages == oldPages
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package mem

import (
	"testing"

	"toss/internal/guest"
)

// placementOp is one decoded step of FuzzPlacement: a Set of one region
// (kind 0), a SetRegions bulk merge into the current placement (kind 1), or
// a bulk build of a fresh placement from a region list (kind 2).
type placementOp struct {
	kind, level int
	regions     []guest.Region
}

// fuzzBytes reads an input front to back, yielding zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) byte() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

func (b *fuzzBytes) u16() int { return b.byte()<<8 | b.byte() }

// Region starts and lengths are offset so inputs reach negative starts and
// empty or negative lengths, which the placement must clip or ignore.
const fuzzStartBias, fuzzPagesBias = 16, 4

func (b *fuzzBytes) region() guest.Region {
	return guest.Region{Start: guest.PageID(b.u16()%1100 - fuzzStartBias), Pages: int64(b.u16()%1100 - fuzzPagesBias)}
}

// decodePlacement turns fuzz input into a level count, a default level, a
// guest size and a sequence of placement operations.
func decodePlacement(data []byte) (levels, def int, total int64, ops []placementOp) {
	b := fuzzBytes(data)
	levels = 2 + b.byte()%(MaxLevels-1)
	def = b.byte() % levels
	total = int64(1 + b.u16()%1024)
	for len(b) > 0 && len(ops) < 64 {
		head := b.byte()
		op := placementOp{kind: (head & 3) % 3, level: b.byte() % levels}
		n := (head >> 2) % 4
		switch op.kind {
		case 0:
			n = 1
		case 1:
			n++
		}
		for i := 0; i < n; i++ {
			op.regions = append(op.regions, b.region())
		}
		ops = append(ops, op)
	}
	return levels, def, total, ops
}

// encodePlacement is decodePlacement's inverse for well-formed ops.
func encodePlacement(levels, def int, total int64, ops ...placementOp) []byte {
	u16 := func(v int) []byte { return []byte{byte(v >> 8), byte(v)} }
	out := []byte{byte(levels - 2), byte(def)}
	out = append(out, u16(int(total-1))...)
	for _, op := range ops {
		n := len(op.regions)
		switch op.kind {
		case 0:
			n = 0
		case 1:
			n--
		}
		out = append(out, byte(op.kind|n<<2), byte(op.level))
		for _, r := range op.regions {
			out = append(out, u16(int(r.Start)+fuzzStartBias)...)
			out = append(out, u16(int(r.Pages)+fuzzPagesBias)...)
		}
	}
	return out
}

// FuzzPlacement checks MultiPlacement against a per-page model: after every
// operation, LevelOf for every page, AppendSegments over probe regions (in
// order, covering, maximal, at the right level), Occupancy, and the run
// invariants (sorted, disjoint, coalesced, none at the default level).
func FuzzPlacement(f *testing.F) {
	// TestMultiPlacementSetAndLookup's two placements.
	f.Add(encodePlacement(4, 3, 1000,
		placementOp{kind: 0, level: 0, regions: []guest.Region{{Start: 100, Pages: 100}}},
		placementOp{kind: 0, level: 1, regions: []guest.Region{{Start: 200, Pages: 100}}},
		placementOp{kind: 0, level: 2, regions: []guest.Region{{Start: 150, Pages: 100}}},
		placementOp{kind: 0, level: 3, regions: []guest.Region{{Start: 150, Pages: 100}}},
		placementOp{kind: 2, level: 3},
		placementOp{kind: 0, level: 1, regions: []guest.Region{{Start: 0, Pages: 10}}},
		placementOp{kind: 0, level: 1, regions: []guest.Region{{Start: 10, Pages: 10}}},
		placementOp{kind: 0, level: 0, regions: []guest.Region{{Start: 990, Pages: 100}}}))
	// TestPlacementTierOf's and TestPlacementTierOfProperty's bulk builds
	// of overlapping, unsorted slow regions over a fast default.
	f.Add(encodePlacement(2, Fast, 128,
		placementOp{kind: 2, level: Slow, regions: []guest.Region{{Start: 10, Pages: 5}, {Start: 100, Pages: 1}}}))
	f.Add(encodePlacement(2, Fast, 80,
		placementOp{kind: 2, level: Slow, regions: []guest.Region{{Start: 63, Pages: 4}, {Start: 13, Pages: 3}, {Start: 60, Pages: 5}}},
		placementOp{kind: 1, level: Slow, regions: []guest.Region{{Start: 14, Pages: 5}, {Start: 0, Pages: 1}, {Start: 1, Pages: 2}, {Start: 66, Pages: 1}}},
		placementOp{kind: 1, level: Fast, regions: []guest.Region{{Start: 12, Pages: 3}, {Start: 64, Pages: 1}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		levels, def, total, ops := decodePlacement(data)
		mp, err := NewMultiPlacement(levels, def, total)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]int, total)
		reset := func() {
			for p := range model {
				model[p] = def
			}
		}
		reset()
		for step, op := range ops {
			switch op.kind {
			case 0:
				mp.Set(op.regions[0], op.level)
			case 1:
				mp.SetRegions(op.regions, op.level)
			case 2:
				mp, _ = NewMultiPlacement(levels, def, total)
				mp.SetRegions(op.regions, op.level)
				reset()
			}
			for _, r := range op.regions {
				for p := max(r.Start, 0); p < min(r.End(), guest.PageID(total)); p++ {
					model[p] = op.level
				}
			}
			checkPlacement(t, step, mp, model, op.regions)
		}
	})
}

// checkPlacement compares mp with the per-page model.
func checkPlacement(t *testing.T, step int, mp *MultiPlacement, model []int, probes []guest.Region) {
	t.Helper()
	for i, run := range mp.runs {
		if run.region.Empty() || run.level == mp.defLevel || run.level < 0 || run.level >= mp.levels {
			t.Fatalf("step %d: run %d %+v is empty, at the default level or out of range", step, i, run)
		}
		if i > 0 {
			prev := mp.runs[i-1]
			if prev.region.End() > run.region.Start {
				t.Fatalf("step %d: runs %+v and %+v unsorted or overlapping", step, prev, run)
			}
			if prev.region.End() == run.region.Start && prev.level == run.level {
				t.Fatalf("step %d: adjacent same-level runs %+v and %+v not coalesced", step, prev, run)
			}
		}
	}
	occ := make([]int64, mp.levels)
	for p, want := range model {
		if got := mp.LevelOf(guest.PageID(p)); got != want {
			t.Fatalf("step %d: LevelOf(%d) = %d, model %d", step, p, got, want)
		}
		occ[want]++
	}
	for l, n := range mp.Occupancy() {
		if n != occ[l] {
			t.Fatalf("step %d: Occupancy = %v, model %v", step, mp.Occupancy(), occ)
		}
	}
	total := guest.PageID(len(model))
	probes = append(probes, guest.Region{Start: 0, Pages: int64(total)},
		guest.Region{Start: total / 3, Pages: int64(total) / 5}, guest.Region{Start: total - 1, Pages: 1})
	for _, r := range probes {
		r.Start, r.Pages = max(r.Start, 0), min(r.Pages, int64(total-max(r.Start, 0)))
		cur := r.Start
		for i, seg := range mp.Segments(r) {
			if seg.Region.Start != cur || seg.Region.Empty() {
				t.Fatalf("step %d: segment %d of %v is %v, want a run from %d", step, i, r, seg.Region, cur)
			}
			for p := seg.Region.Start; p < seg.Region.End(); p++ {
				if model[p] != seg.Level {
					t.Fatalf("step %d: segment %v at level %d holds page %d at %d", step, seg.Region, seg.Level, p, model[p])
				}
			}
			if seg.Region.Start > r.Start && model[seg.Region.Start-1] == seg.Level {
				t.Fatalf("step %d: segment %v of %v not maximal", step, seg.Region, r)
			}
			cur = seg.Region.End()
		}
		if r.Pages > 0 && cur != r.End() {
			t.Fatalf("step %d: segments of %v end at %d", step, r, cur)
		}
	}
}

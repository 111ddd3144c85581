package microvm

import (
	"math/rand"
	"slices"
	"testing"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
	"toss/internal/snapshot"
)

// pageModel is the per-page reference the extent set is checked against.
type pageModel []bool

func newPageModel(pages int64, rs ...guest.Region) pageModel {
	pm := make(pageModel, pages)
	for _, r := range rs {
		for p := r.Start; p < r.End(); p++ {
			pm[p] = true
		}
	}
	return pm
}

// add marks r and returns the pages it newly marked, as runs.
func (pm pageModel) add(r guest.Region) []guest.Region {
	fresh := make(pageModel, len(pm))
	for p := r.Start; p < r.End(); p++ {
		if !pm[p] {
			pm[p], fresh[p] = true, true
		}
	}
	return fresh.regions()
}

func (pm pageModel) overlap(r guest.Region) int64 {
	var n int64
	for p := r.Start; p < r.End(); p++ {
		if pm[p] {
			n++
		}
	}
	return n
}

func (pm pageModel) regions() []guest.Region {
	var out []guest.Region
	for p, in := range pm {
		if !in {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End() == guest.PageID(p) {
			out[n-1].Pages++
		} else {
			out = append(out, guest.Region{Start: guest.PageID(p), Pages: 1})
		}
	}
	return out
}

// checkExtents fails unless x is sorted, disjoint, non-adjacent and free of
// empty runs.
func checkExtents(t *testing.T, x extents) {
	t.Helper()
	for i, r := range x {
		if r.Empty() || i > 0 && x[i-1].End() >= r.Start {
			t.Fatalf("extents %v break the invariant at run %d", x, i)
		}
	}
}

// residencyPages is the guest FuzzResidency works in: a byte addresses
// every page, the last one included.
const residencyPages = 256

// FuzzResidency drives add/overlap sequences through the extent set and
// checks every result, and the set after every add, against a per-page
// model. Each op is three bytes: kind (even adds, odd counts the overlap),
// first page, and length — clipped to the guest, so it may be zero.
func FuzzResidency(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 10, 10, 1, 5, 10})                         // adjacent runs merge
	f.Add([]byte{0, 0, 5, 0, 10, 5, 0, 5, 5, 1, 0, 20})                  // a run fills the gap between two
	f.Add([]byte{0, 20, 5, 0, 40, 5, 0, 60, 5, 0, 10, 100})              // one run swallows three
	f.Add([]byte{0, 0, 1, 0, 255, 1, 1, 0, 255, 1, 255, 1})              // page 0 and the last page
	f.Add([]byte{0, 7, 0, 1, 7, 0, 0, 7, 1, 0, 7, 0, 1, 0, 0})           // empty regions
	f.Add([]byte{0, 129, 1, 0, 128, 2, 1, 128, 2, 0, 127, 1})            // left and right neighbours
	f.Add([]byte{0, 50, 10, 0, 30, 10, 0, 10, 10, 0, 70, 10, 0, 0, 255}) // out-of-order inserts
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x extents
		model := newPageModel(residencyPages)
		var gaps []guest.Region
		for ; len(ops) >= 3; ops = ops[3:] {
			start := guest.PageID(ops[1])
			r := guest.Region{Start: start, Pages: int64(ops[2]) % (residencyPages - int64(start) + 1)}
			if ops[0]%2 == 1 {
				if got, want := x.overlap(r), model.overlap(r); got != want {
					t.Fatalf("overlap(%v) = %d, model %d (set %v)", r, got, want, x)
				}
				continue
			}
			gaps = x.add(r, gaps[:0])
			if want := model.add(r); !slices.Equal(gaps, want) {
				t.Fatalf("add(%v) fresh runs %v, model %v", r, gaps, want)
			}
			checkExtents(t, x)
			if want := model.regions(); !slices.Equal(x, want) {
				t.Fatalf("after add(%v) set %v, model %v", r, x, want)
			}
		}
	})
}

// randRegions draws n possibly overlapping regions inside a guest of pages.
func randRegions(rng *rand.Rand, pages int64, n int) []guest.Region {
	out := make([]guest.Region, n)
	for i := range out {
		start := rng.Int63n(pages)
		out[i] = guest.Region{Start: guest.PageID(start), Pages: 1 + rng.Int63n(min(pages-start, 400))}
	}
	return out
}

// randTraceIn draws a trace of n events inside a guest of pages: single
// pages and long bursts, overlapping, under both access patterns.
func randTraceIn(rng *rand.Rand, pages int64, n int) *access.Trace {
	var tr access.Trace
	for _, r := range randRegions(rng, pages, n) {
		if rng.Intn(4) == 0 {
			r.Pages = 1
		}
		tr.Append(access.Event{
			Region: r, LinesPerPage: 1 + rng.Intn(guest.LinesPerPage), Repeat: 1 + rng.Intn(3),
			Kind: access.Kind(rng.Intn(2)), Pattern: access.Pattern(rng.Intn(2)), HitRatio: rng.Float64(),
		})
	}
	return &tr
}

// replayPerPage prices tr's first touches page by page with m's own fault
// pricing, marking them in the reference resident set as it goes.
func replayPerPage(m *Machine, tr *access.Trace, resident, stored pageModel) (major, minor int64, faultTime simtime.Duration) {
	for _, e := range tr.Events {
		for _, seg := range m.placement.Segments(e.Region) {
			var newStored, newZero int64
			for p := seg.Region.Start; p < seg.Region.End(); p++ {
				switch {
				case resident[p]:
				case stored[p]:
					newStored++
				default:
					newZero++
				}
				resident[p] = true
			}
			if newStored+newZero > 0 {
				cost, maj, mnr := m.faultCost(e, seg.Tier, newStored, newZero)
				major, minor, faultTime = major+maj, minor+mnr, faultTime+cost
			}
		}
	}
	return major, minor, faultTime
}

// TestResidencyMatchesPerPageReference replays random traces on machines
// from every constructor and checks the fault counts, the fault time and the
// captured snapshot against a per-page replay of the same trace, whose
// residency and backing sets are derived from the constructor's inputs.
func TestResidencyMatchesPerPageReference(t *testing.T) {
	cfg := DefaultConfig()
	l := testLayout(t)
	n := l.TotalPages
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		captured := randRegions(rng, n, 1+rng.Intn(12))
		slow := randRegions(rng, n, rng.Intn(8))
		ws := randRegions(rng, n, rng.Intn(8))
		tr := randTraceIn(rng, n, 1+rng.Intn(60))
		snap := &snapshot.Single{Function: "f", Memory: snapshot.NewMemory("f", n, captured)}
		ts := buildTiered(t, l, captured, slow)
		placement := mem.NewPlacement(slow)
		stored := newPageModel(n, captured...)
		slowStored := newPageModel(n)
		for p, in := range stored {
			slowStored[p] = in && placement.TierOf(guest.PageID(p)) == mem.Slow
		}
		for _, c := range []struct {
			name             string
			mk               func() *Machine
			resident, stored pageModel
		}{
			{"booted", func() *Machine { return NewBooted(cfg, l) }, newPageModel(n, l.BootImage), newPageModel(n)},
			{"lazy", func() *Machine { return RestoreLazy(cfg, l, snap, 2) }, newPageModel(n), stored},
			{"reap", func() *Machine { return RestoreREAP(cfg, l, snap, ws, 3) }, newPageModel(n, ws...), stored},
			{"tiered", func() *Machine { return RestoreTiered(cfg, l, ts, 1) }, slowStored, stored},
			{"resident", func() *Machine { return NewResident(cfg, l, placement, 1) }, newPageModel(n, guest.Region{Pages: n}), newPageModel(n)},
		} {
			vm := c.mk()
			vm.SetRecordTruth(false)
			res, err := vm.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			major, minor, faultTime := replayPerPage(c.mk(), tr, c.resident, c.stored)
			if res.MajorFaults != major || res.MinorFaults != minor || res.FaultTime != faultTime {
				t.Errorf("seed %d %s: faults %d/%d in %v, per-page reference %d/%d in %v",
					seed, c.name, res.MajorFaults, res.MinorFaults, res.FaultTime, major, minor, faultTime)
			}
			snapAfter, _ := vm.Snapshot("f")
			if got, want := snapAfter.Memory.ResidentRegions(), c.resident.regions(); !slices.Equal(got, want) {
				t.Errorf("seed %d %s: snapshot regions %v, per-page reference %v", seed, c.name, got, want)
			}
		}
	}
}

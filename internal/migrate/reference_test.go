package migrate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
)

// refEngine runs the migration epoch the direct way: packDesired re-sorts
// the unassigned extents once per bounded level, each candidate list gets a
// sort of its own, every comparison recomputes the jitter, and makeRoom
// scans every extent for each eviction victim. It shares the Engine's state
// and its non-epoch methods (SetLevel, Touch, LogChecksum, ...), and it is
// the differential reference FuzzTick and TestTickMatchesReference hold the
// ranked epoch to.
type refEngine struct {
	*Engine
	order   []int
	desired []uint8
}

func newRefEngine(cfg Config, totalPages int64) (*refEngine, error) {
	e, err := New(cfg, totalPages)
	if err != nil {
		return nil, err
	}
	return &refEngine{Engine: e}, nil
}

// jitter is the splitmix64 of (seed, extent), recomputed on every call.
func (e *refEngine) jitter(extent int) uint64 {
	x := uint64(e.cfg.Seed)*0x9E3779B97F4A7C15 + uint64(extent)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hotterFirst orders extents by (heat desc, jitter, index) given a heat
// vector.
func (e *refEngine) hotterFirst(order []int, heatOf func(int) float64) {
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		hi, hj := heatOf(i), heatOf(j)
		if hi != hj {
			return hi > hj
		}
		ji, jj := e.jitter(i), e.jitter(j)
		if ji != jj {
			return ji < jj
		}
		return i < j
	})
}

func (e *refEngine) Tick(now simtime.Duration) []Event {
	e.epoch++
	e.stats.Epochs++
	for i := range e.heat {
		e.heat[i] = e.cfg.Decay*e.heat[i] + e.pending[i]
		e.pending[i] = 0
	}
	if e.cfg.Policy == PolicyStatic {
		return nil
	}

	oracle := e.cfg.Policy == PolicyOracle
	desired := e.packDesired(oracle)

	logStart := len(e.log)
	cursor := e.busyUntil
	if cursor < now {
		cursor = now
	}
	deadline := now + e.cfg.Epoch
	budgetLeft := func() bool { return oracle || cursor < deadline }

	exec := func(i, to int, reason Reason) {
		from := int(e.level[i])
		if from == to {
			return
		}
		region := e.ExtentRegion(i)
		cost := e.cfg.Hierarchy.MoveCost(from, to, region.Pages)
		at, done := cursor, cursor
		if !oracle {
			done = cursor + cost
			cursor = done
			e.readyAt[i] = done
			e.stats.BusyTime += cost
		}
		e.moveOccupancy(i, to)
		e.level[i] = uint8(to)
		e.movedAt[i] = e.epoch
		e.stats.MovedPages += region.Pages
		switch reason {
		case ReasonPromote:
			e.stats.Promotions++
		case ReasonDemote:
			e.stats.Demotions++
		case ReasonEvict:
			e.stats.Evictions++
		case ReasonPrefetch:
			e.stats.Prefetches++
		}
		e.log = append(e.log, Event{
			At: at, Done: done, Extent: i, Region: region,
			From: from, To: to, Reason: reason, Heat: e.heat[i],
		})
	}

	roomAt := func(want int, pages int64) int {
		for l := want; l < e.cfg.Hierarchy.Levels(); l++ {
			if e.occupancy[l]+pages <= e.cfg.Hierarchy.Capacity(l) {
				return l
			}
		}
		return e.cfg.Hierarchy.Bottom()
	}

	cooled := func(i int) bool {
		return oracle || int(e.epoch-e.movedAt[i]) >= e.cfg.MinResidencyEpochs
	}

	if e.cfg.Policy == PolicyFull || oracle {
		e.order = e.order[:0]
		for i := 0; i < e.nExt; i++ {
			if int(desired[i]) > int(e.level[i]) && cooled(i) {
				e.order = append(e.order, i)
			}
		}
		e.hotterFirst(e.order, func(i int) float64 { return -e.heat[i] }) // coldest first
		for _, i := range e.order {
			if !budgetLeft() {
				break
			}
			exec(i, roomAt(int(desired[i]), e.ExtentRegion(i).Pages), ReasonDemote)
		}
	}

	e.order = e.order[:0]
	for i := 0; i < e.nExt; i++ {
		if int(desired[i]) < int(e.level[i]) && cooled(i) {
			e.order = append(e.order, i)
		}
	}
	e.hotterFirst(e.order, func(i int) float64 { return e.heat[i] })
	promoted := e.order[:0:0]
	for _, i := range e.order {
		if !budgetLeft() {
			break
		}
		target := int(desired[i])
		if !e.makeRoom(target, e.ExtentRegion(i).Pages, exec, roomAt, budgetLeft) {
			continue
		}
		exec(i, target, ReasonPromote)
		promoted = append(promoted, i)
	}

	if e.cfg.PrefetchExtents > 0 {
		for _, i := range promoted {
			target := int(e.level[i])
			for k := 1; k <= e.cfg.PrefetchExtents; k++ {
				j := i + k
				if j >= e.nExt || !budgetLeft() {
					break
				}
				if int(e.level[j]) <= target || e.movedAt[j] == e.epoch {
					continue
				}
				if !e.makeRoom(target, e.ExtentRegion(j).Pages, exec, roomAt, budgetLeft) {
					break
				}
				exec(j, target, ReasonPrefetch)
			}
		}
	}

	if !oracle && cursor > e.busyUntil {
		e.busyUntil = cursor
	}
	return e.log[logStart:]
}

func (e *refEngine) makeRoom(target int, pages int64,
	exec func(i, to int, reason Reason), roomAt func(int, int64) int, budgetLeft func() bool) bool {
	if e.cfg.Policy == PolicyStatic {
		return false
	}
	for e.occupancy[target]+pages > e.cfg.Hierarchy.Capacity(target) {
		if !budgetLeft() {
			return false
		}
		victim := -1
		for i := 0; i < e.nExt; i++ {
			if int(e.level[i]) != target || e.movedAt[i] == e.epoch {
				continue
			}
			if victim < 0 || e.heat[i] < e.heat[victim] ||
				(e.heat[i] == e.heat[victim] && e.jitter(i) < e.jitter(victim)) {
				victim = i
			}
		}
		if victim < 0 {
			return false
		}
		exec(victim, roomAt(target+1, e.ExtentRegion(victim).Pages), ReasonEvict)
	}
	return true
}

func (e *refEngine) packDesired(oracle bool) []uint8 {
	if cap(e.desired) < e.nExt {
		e.desired = make([]uint8, e.nExt)
	}
	desired := e.desired[:e.nExt]
	bottom := uint8(e.cfg.Hierarchy.Bottom())
	for i := range desired {
		desired[i] = bottom
	}
	assigned := make([]bool, e.nExt)
	order := make([]int, e.nExt)
	for l := 0; l < e.cfg.Hierarchy.Levels()-1; l++ {
		order = order[:0]
		for i := 0; i < e.nExt; i++ {
			if !assigned[i] {
				order = append(order, i)
			}
		}
		score := func(i int) float64 {
			if !oracle && int(e.level[i]) == l {
				return e.heat[i] * e.cfg.PromoteMargin
			}
			return e.heat[i]
		}
		e.hotterFirst(order, score)
		capLeft := e.cfg.Hierarchy.Capacity(l)
		for _, i := range order {
			pages := e.ExtentRegion(i).Pages
			if pages > capLeft {
				break
			}
			if e.heat[i] <= 0 {
				break
			}
			desired[i] = uint8(l)
			assigned[i] = true
			capLeft -= pages
		}
	}
	return desired
}

// tickCase is one differential run: an engine configuration, a guest size
// and a sequence of calls, the same for the engine and the reference.
type tickCase struct {
	cfg        Config
	totalPages int64
	ops        []tickOp
}

// tickOp is one call. Tick ignores the other fields; TouchExtent uses
// extent and heat; Touch and SetLevel use region, and heat or level.
type tickOp struct {
	kind   int // opTouchExtent, opTouch, opSetLevel or opTick
	extent int
	region guest.Region
	heat   float64
	level  int
}

const (
	opTouchExtent = iota
	opTouch
	opSetLevel
	opTick
)

// collisionHi is the successor of 4/3. PromoteMargin 1.5 scales both to
// exactly 2.0, so two incumbents with these heats tie on score and fall
// through to the jitter, whatever their unscaled order says.
var collisionHi = math.Nextafter(4.0/3, math.Inf(1))

// caseHeats are the heats the differential cases draw from, with
// replacement, so extents repeat them: zero, negatives, tiny and large
// values, and the collision pair.
var caseHeats = []float64{0, 1, 2, 3, 8, -1, -0.5, 0.25, 4.0 / 3, collisionHi, 1e-9, 1e6}

// runTickCase drives the engine and the reference through c's calls and
// fails at the first tick after which their log checksums, occupancies or
// level vectors differ.
func runTickCase(t *testing.T, name string, c tickCase) {
	t.Helper()
	got, err := New(c.cfg, c.totalPages)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefEngine(c.cfg, c.totalPages)
	if err != nil {
		t.Fatal(err)
	}
	var now simtime.Duration
	for n, op := range c.ops {
		switch op.kind {
		case opTouchExtent:
			got.TouchExtent(op.extent, op.heat)
			want.TouchExtent(op.extent, op.heat)
		case opTouch:
			got.Touch(op.region, op.heat)
			want.Touch(op.region, op.heat)
		case opSetLevel:
			got.SetLevel(op.region, op.level)
			want.SetLevel(op.region, op.level)
		case opTick:
			now += c.cfg.Epoch
			ge, we := len(got.Tick(now)), len(want.Tick(now))
			if ge != we || got.LogChecksum() != want.LogChecksum() {
				t.Fatalf("%s, op %d (tick %d): %d events, checksum %x; reference %d events, checksum %x",
					name, n, got.epoch, ge, got.LogChecksum(), we, want.LogChecksum())
			}
			if g, w := got.Occupancy(), want.Occupancy(); !slices.Equal(g, w) {
				t.Fatalf("%s, op %d (tick %d): occupancy %v, reference %v", name, n, got.epoch, g, w)
			}
			if g, w := got.Levels(), want.Levels(); !slices.Equal(g, w) {
				t.Fatalf("%s, op %d (tick %d): levels %v, reference %v", name, n, got.epoch, g, w)
			}
		}
	}
}

// caseHierarchy builds a hierarchy of `levels` tiers (2..4) from the
// default stack: the object tier stays the unbounded bottom, and the
// bounded tiers above it take caps (in pages). slow makes every move take
// a quarter of an epoch per 4 pages, so the bandwidth budget binds.
func caseHierarchy(levels int, caps [3]int64, slow bool) mem.Hierarchy {
	d := mem.DefaultHierarchy()
	h := d.Clone()
	h.Tiers = append(h.Tiers[:levels-1], d.Tiers[len(d.Tiers)-1])
	for l := 0; l < levels-1; l++ {
		h.Tiers[l].CapacityPages = caps[l]
	}
	if slow {
		for l := range h.Tiers {
			h.Tiers[l].PromoteBytesPerSec = 16 * guest.PageSize
			h.Tiers[l].DemoteBytesPerSec = 16 * guest.PageSize
		}
	}
	return h
}

// randomTickCase draws one differential case: a policy, margin, decay,
// cooldown and prefetch depth; a 2..4-level hierarchy whose bounded tiers
// hold 0..12 extents, sometimes a zero-capacity middle tier, sometimes a
// capacity that is not a whole number of extents; a guest whose last
// extent may be short; and `epochs` epochs of touches, re-seeds and ticks.
func randomTickCase(r *rand.Rand, epochs int) tickCase {
	const extentPages = 4
	nExt := 2 + r.Intn(40)
	total := int64(nExt) * extentPages
	if r.Intn(2) == 0 {
		total -= 1 + r.Int63n(extentPages-1) // short last extent
	}
	levels := 2 + r.Intn(3)
	var caps [3]int64
	for l := range caps {
		caps[l] = int64(r.Intn(13)) * extentPages
		if r.Intn(4) == 0 {
			caps[l] += 1 + r.Int63n(extentPages-1)
		}
	}
	if levels == 4 && r.Intn(4) == 0 {
		caps[1] = 0 // zero-capacity middle tier
	}
	cfg := DefaultConfig(caseHierarchy(levels, caps, r.Intn(3) == 0))
	cfg.Policy = Policies()[r.Intn(4)]
	cfg.ExtentPages = extentPages
	cfg.PromoteMargin = []float64{1, 1.5, 3}[r.Intn(3)]
	cfg.Decay = []float64{0, 0.5, 0.9}[r.Intn(3)]
	cfg.MinResidencyEpochs = r.Intn(3)
	cfg.PrefetchExtents = r.Intn(3)
	cfg.Seed = r.Int63n(1 << 20)

	c := tickCase{cfg: cfg, totalPages: total}
	heat := func() float64 { return caseHeats[r.Intn(len(caseHeats))] }
	region := func() guest.Region {
		return guest.Region{Start: guest.PageID(r.Int63n(total)), Pages: 1 + r.Int63n(3*extentPages)}
	}
	for k := r.Intn(4); k > 0; k-- {
		c.ops = append(c.ops, tickOp{kind: opSetLevel, region: region(), level: r.Intn(levels)})
	}
	for ep := 0; ep < epochs; ep++ {
		for k := r.Intn(2 * nExt); k > 0; k-- {
			switch r.Intn(8) {
			case 0:
				c.ops = append(c.ops, tickOp{kind: opTouch, region: region(), heat: heat()})
			case 1:
				if r.Intn(4) == 0 {
					c.ops = append(c.ops, tickOp{kind: opSetLevel, region: region(), level: r.Intn(levels)})
				}
			default:
				c.ops = append(c.ops, tickOp{kind: opTouchExtent, extent: r.Intn(nExt), heat: heat()})
			}
		}
		c.ops = append(c.ops, tickOp{kind: opTick})
	}
	return c
}

// TestTickMatchesReference holds the ranked epoch to the reference engine
// over a few hundred seeded random cases.
func TestTickMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for n := 0; n < 400; n++ {
		runTickCase(t, fmt.Sprintf("case %d", n), randomTickCase(r, 16))
	}
}

// fuzzTickCase decodes FuzzTick's input. The scalar arguments pick the
// configuration; ops is read three bytes per call: an opcode and two
// operands.
func fuzzTickCase(policy, margin, decay, residency, prefetch, shape uint8, seed int64, ops []byte) tickCase {
	const extentPages = 4
	nExt := 1 + int(shape&0x0f)
	total := int64(nExt) * extentPages
	if shape&0x10 != 0 {
		total -= 3 // short last extent
	}
	levels := 2 + int(shape>>5)%3
	caps := [3]int64{
		int64(1+residency>>4) * extentPages,
		int64(prefetch>>4) * extentPages, // 0: a zero-capacity middle tier
		int64(1+decay>>4)*extentPages + int64(policy>>6),
	}
	cfg := DefaultConfig(caseHierarchy(levels, caps, shape>>7 != 0))
	cfg.Policy = Policies()[policy%4]
	cfg.ExtentPages = extentPages
	cfg.PromoteMargin = []float64{1, 1.5, 3}[margin%3]
	cfg.Decay = []float64{0, 0.5, 0.9}[decay%3]
	cfg.MinResidencyEpochs = int(residency % 3)
	cfg.PrefetchExtents = int(prefetch % 3)
	cfg.Seed = seed

	c := tickCase{cfg: cfg, totalPages: total}
	for k := 0; k+2 < len(ops); k += 3 {
		op, a, b := ops[k], int(ops[k+1]), int(ops[k+2])
		region := guest.Region{Start: guest.PageID(int64(a) % total), Pages: 1 + int64(b)%(3*extentPages)}
		heat := caseHeats[int(op>>2)%len(caseHeats)]
		switch op % 4 {
		case 0:
			c.ops = append(c.ops, tickOp{kind: opTouchExtent, extent: a % nExt, heat: caseHeats[b%len(caseHeats)]})
		case 1:
			c.ops = append(c.ops, tickOp{kind: opTouch, region: region, heat: heat})
		case 2:
			c.ops = append(c.ops, tickOp{kind: opSetLevel, region: region, level: int(op>>2) % levels})
		case 3:
			c.ops = append(c.ops, tickOp{kind: opTick})
		}
	}
	return c
}

// FuzzTick drives the engine and the reference through the same
// SetLevel/Touch/TouchExtent/Tick sequence and compares them after every
// tick.
func FuzzTick(f *testing.F) {
	touch := func(extent int, heat float64) []byte {
		return []byte{0, byte(extent), byte(slices.Index(caseHeats, heat))}
	}
	seat := func(extent, level int) []byte {
		return []byte{byte(2 | level<<2), byte(extent * 4), 3}
	}
	tick := []byte{3, 0, 0}
	// The collision pair at Decay 0: extents 0 and 1 both sit in a DRAM
	// tier that holds one of them, with heats 4/3 and its successor. At
	// margin 1.5 both score 2.0, so the jitter decides which stays and
	// which full migration demotes; the second entry swaps the heats.
	for _, heats := range [][2]float64{{4.0 / 3, collisionHi}, {collisionHi, 4.0 / 3}} {
		ops := slices.Concat(seat(0, 0), seat(1, 0),
			touch(0, heats[0]), touch(1, heats[1]), tick,
			touch(0, heats[0]), touch(1, heats[1]), tick)
		for _, seed := range []int64{1, 2, 3, 4} {
			f.Add(uint8(PolicyFull), uint8(1), uint8(0), uint8(0), uint8(0), uint8(3|1<<5), seed, ops)
		}
	}
	f.Add(uint8(PolicyOracle), uint8(0), uint8(1), uint8(2), uint8(1), uint8(0x1f|2<<5), int64(7),
		slices.Concat(touch(3, 8), touch(5, 8), touch(9, 2), tick, touch(4, -1), tick, tick))
	f.Add(uint8(PolicyFull|1<<6), uint8(2), uint8(2|1<<4), uint8(1), uint8(2|2<<4), uint8(0x0f|0x10|0x80), int64(-3),
		slices.Concat(seat(2, 1), touch(2, 1), touch(7, 3), tick, touch(7, 0), touch(8, 3), tick, tick, tick))
	f.Fuzz(func(t *testing.T, policy, margin, decay, residency, prefetch, shape uint8, seed int64, ops []byte) {
		runTickCase(t, "fuzz", fuzzTickCase(policy, margin, decay, residency, prefetch, shape, seed, ops))
	})
}

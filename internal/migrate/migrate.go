// Package migrate is the background migration engine of the N-tier snapshot
// hierarchy (TIERS.md): a virtual-time daemon that consumes per-extent access
// heat (DAMON/wstrack-derived), promotes hot snapshot regions up the
// hierarchy, demotes cold ones down (Squeezy-style reclamation on the cold
// edge), and prefetches the likely-next neighbors of every promotion.
//
// The engine tracks heat at fixed extent granularity (Config.ExtentPages,
// default 64 pages = 256 KiB) as an exponentially weighted moving average
// folded once per epoch. Each Tick packs extents into tiers greedily by heat
// under an incumbent-advantage hysteresis (an extent already resident at a
// tier must be out-heated by Config.PromoteMargin before a challenger
// displaces it), then executes the resulting moves — demotions first, so
// reclamation frees capacity before promotions need it — under a bandwidth
// budget of one epoch of migration time per epoch. Every move costs virtual
// time (mem.Hierarchy.MoveCost) and marks its extent busy until the move
// completes; executions overlapping a busy extent wait (WaitFor), and ext11
// and perfbench's fleet workload add that wait to the invocation's latency.
//
// Each Tick ranks the extents once, by (heat, tie-break hash, index); the
// pack, the demotion and promotion orders and every tier's eviction order
// are read off that one ranking. The ranking starts from the previous
// epoch's: only the extents touched since then are sorted, and merged in.
//
// The engine keeps no event log. It folds each event into a running
// FNV-1a checksum as it schedules it (LogChecksum), and Tick returns the
// epoch's events in a buffer the next Tick reuses.
//
// Determinism: the engine is a pure function of (config, seed, the Touch and
// Tick sequence). Heat ties in the packing order are broken by a splitmix64
// hash of (seed, extent) — stable across epochs so equal-heat extents do not
// churn — and every iteration order is explicit, so the migration log is
// byte-identical for a given seed at any caller parallelism (pinned by the
// serial-vs-parallel log-checksum tests).
package migrate

import (
	"cmp"
	"fmt"
	"slices"

	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/simtime"
)

// Policy selects what the engine is allowed to move.
type Policy int

const (
	// PolicyStatic never migrates: the snapshot-time placement is final
	// (TOSS's original behaviour, lifted onto the hierarchy).
	PolicyStatic Policy = iota
	// PolicyPromoteOnly promotes hot extents (evicting coldest incumbents
	// only when the target tier is full) but never reclaims cold extents
	// in the background.
	PolicyPromoteOnly
	// PolicyFull adds background demotion: cold extents drain down the
	// hierarchy every epoch, so capacity is free before promotions need it.
	PolicyFull
	// PolicyOracle re-packs the hierarchy every epoch with no hysteresis,
	// no bandwidth cost, and no busy time — the unreachable upper bound.
	PolicyOracle
)

// String names the policy the way ext11's table does.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyPromoteOnly:
		return "promote-only"
	case PolicyFull:
		return "full-migration"
	case PolicyOracle:
		return "oracle"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies returns all policies in sweep order.
func Policies() []Policy {
	return []Policy{PolicyStatic, PolicyPromoteOnly, PolicyFull, PolicyOracle}
}

// Config tunes the engine. DefaultConfig documents each default.
type Config struct {
	// Hierarchy is the tier model: capacities, costs, bandwidths.
	Hierarchy mem.Hierarchy
	// Policy selects the migration behaviour.
	Policy Policy
	// ExtentPages is the heat-tracking and migration granularity.
	ExtentPages int64
	// Epoch is the daemon's virtual-time cadence: Tick is called once per
	// epoch, and each epoch may schedule at most one epoch's worth of
	// migration bandwidth.
	Epoch simtime.Duration
	// Decay is the per-epoch EWMA retention of old heat (0..1): heat =
	// Decay*heat + thisEpoch. Lower values react faster to drift.
	Decay float64
	// PromoteMargin is the incumbent-advantage hysteresis: a challenger
	// must be at least this factor hotter than a tier's incumbent to
	// displace it. 1 disables hysteresis.
	PromoteMargin float64
	// MinResidencyEpochs is the per-extent cooldown: an extent moved in
	// epoch E does not move again before E+MinResidencyEpochs (forced
	// evictions are exempt — a full tier must always be reclaimable).
	MinResidencyEpochs int
	// PrefetchExtents is how many address-space successors each promoted
	// extent pulls along (prefetch-on-promote). 0 disables.
	PrefetchExtents int
	// Seed feeds the deterministic tie-break hash.
	Seed int64
}

// DefaultConfig returns the engine defaults used by ext11 and the faasim
// migration demo, over the given hierarchy.
func DefaultConfig(h mem.Hierarchy) Config {
	return Config{
		Hierarchy:          h,
		Policy:             PolicyFull,
		ExtentPages:        64, // 256 KiB
		Epoch:              1 * simtime.Second,
		Decay:              0.5,
		PromoteMargin:      1.5,
		MinResidencyEpochs: 2,
		PrefetchExtents:    1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if c.ExtentPages < 1 {
		return fmt.Errorf("migrate: ExtentPages %d < 1", c.ExtentPages)
	}
	if c.Epoch <= 0 {
		return fmt.Errorf("migrate: non-positive Epoch")
	}
	if c.Decay < 0 || c.Decay >= 1 {
		return fmt.Errorf("migrate: Decay %v out of [0,1)", c.Decay)
	}
	if c.PromoteMargin < 1 {
		return fmt.Errorf("migrate: PromoteMargin %v < 1", c.PromoteMargin)
	}
	if c.MinResidencyEpochs < 0 {
		return fmt.Errorf("migrate: negative MinResidencyEpochs")
	}
	if c.PrefetchExtents < 0 {
		return fmt.Errorf("migrate: negative PrefetchExtents")
	}
	return nil
}

// Reason classifies one migration event.
type Reason uint8

const (
	// ReasonPromote moved a hot extent up the hierarchy.
	ReasonPromote Reason = iota
	// ReasonDemote drained a cold extent down (background reclamation).
	ReasonDemote
	// ReasonEvict demoted a tier's coldest incumbent to make room for a
	// promotion into a full tier.
	ReasonEvict
	// ReasonPrefetch promoted an address-space successor of a promoted
	// extent (prefetch-on-promote).
	ReasonPrefetch
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonPromote:
		return "promote"
	case ReasonDemote:
		return "demote"
	case ReasonEvict:
		return "evict"
	case ReasonPrefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// Event is one executed migration, in schedule order.
type Event struct {
	// At / Done bound the move on the daemon's virtual-time schedule.
	At, Done simtime.Duration
	// Extent is the moved extent's index; Region its guest pages.
	Extent int
	Region guest.Region
	// From / To are hierarchy levels.
	From, To int
	// Reason classifies the move.
	Reason Reason
	// Heat is the extent's EWMA heat when the move was scheduled.
	Heat float64
}

// Stats summarizes an engine's activity.
type Stats struct {
	Promotions int64
	Demotions  int64
	Evictions  int64
	Prefetches int64
	MovedPages int64
	// BusyTime is the total virtual time the migration daemon spent moving.
	BusyTime simtime.Duration
	// Epochs counts Tick calls.
	Epochs int64
}

// Moves returns the total executed migrations.
func (s Stats) Moves() int64 { return s.Promotions + s.Demotions + s.Evictions + s.Prefetches }

// Engine is one function's migration daemon. It is not safe for concurrent
// use; run one engine per goroutine (the determinism tests fan engines out
// over internal/par and pin byte-identical logs).
type Engine struct {
	cfg        Config
	totalPages int64
	nExt       int

	heat      []float64 // EWMA per extent
	pending   []float64 // heat accumulated since the last Tick
	touched   []bool    // pending was non-zero at the last Tick's fold
	level     []uint8   // current hierarchy level per extent
	movedAt   []int32   // epoch of the extent's last move (hysteresis)
	readyAt   []simtime.Duration
	jit       []uint64 // tie-break hash of (Seed, extent), fixed at New
	occupancy []int64  // pages per level

	epoch     int32
	busyUntil simtime.Duration
	// events are the current epoch's migrations; sum is the FNV-1a of
	// every epoch's events in schedule order.
	events []Event
	sum    uint64
	stats  Stats

	// The epoch's ranking and the scratch derived from it, updated every
	// Tick and reused across Ticks.
	hot      []rankKey // every extent, hottest first
	spare    []rankKey // rerank's merge target, swapped with hot
	fresh    []rankKey // rerank: the touched extents' keys
	cold     []int32   // every extent, coldest first
	victims  [][]int32 // per bounded level: its extents at the epoch's start, coldest first
	vnext    []int     // per bounded level: makeRoom's cursor into victims
	inc      []rankKey // packDesired: one level's incumbents, keyed by scaled heat
	cand     []int32   // demotion, then promotion candidates
	promoted []int32
	desired  []uint8
}

// rankKey is one extent's entry in an epoch's ranking.
type rankKey struct {
	heat float64
	jit  uint64
	i    int32
}

// hotter orders keys by (heat desc, jitter asc, index asc): the total order
// every ranking of an epoch follows.
func hotter(a, b rankKey) int {
	switch {
	case a.heat > b.heat:
		return -1
	case a.heat < b.heat:
		return 1
	case a.jit < b.jit:
		return -1
	case a.jit > b.jit:
		return 1
	}
	return cmp.Compare(a.i, b.i)
}

// New builds an engine over a guest of totalPages pages with every extent at
// the hierarchy's bottom tier (seed real placements with SetLevel).
func New(cfg Config, totalPages int64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if totalPages < 1 {
		return nil, fmt.Errorf("migrate: non-positive guest size %d", totalPages)
	}
	n := int((totalPages + cfg.ExtentPages - 1) / cfg.ExtentPages)
	e := &Engine{
		cfg:        cfg,
		totalPages: totalPages,
		nExt:       n,
		heat:       make([]float64, n),
		pending:    make([]float64, n),
		touched:    make([]bool, n),
		level:      make([]uint8, n),
		movedAt:    make([]int32, n),
		readyAt:    make([]simtime.Duration, n),
		occupancy:  make([]int64, cfg.Hierarchy.Levels()),
		jit:        make([]uint64, n),
		victims:    make([][]int32, cfg.Hierarchy.Bottom()),
		vnext:      make([]int, cfg.Hierarchy.Bottom()),
		sum:        fnvOffset64,
	}
	bottom := uint8(cfg.Hierarchy.Bottom())
	for i := range e.level {
		e.level[i] = bottom
		e.movedAt[i] = -1 << 30
		e.jit[i] = jitter(cfg.Seed, i)
	}
	e.occupancy[bottom] = totalPages
	return e, nil
}

// Extents returns the number of tracked extents.
func (e *Engine) Extents() int { return e.nExt }

// ExtentRegion returns the guest pages of extent i (the last extent may be
// short).
func (e *Engine) ExtentRegion(i int) guest.Region {
	start := int64(i) * e.cfg.ExtentPages
	pages := e.cfg.ExtentPages
	if start+pages > e.totalPages {
		pages = e.totalPages - start
	}
	return guest.Region{Start: guest.PageID(start), Pages: pages}
}

// LevelOfExtent returns extent i's current hierarchy level.
func (e *Engine) LevelOfExtent(i int) int { return int(e.level[i]) }

// Levels returns a copy of the per-extent level vector — one row of the
// migration timeline (RenderTimeline).
func (e *Engine) Levels() []int {
	out := make([]int, e.nExt)
	for i, l := range e.level {
		out[i] = int(l)
	}
	return out
}

// Occupancy returns the pages resident per level.
func (e *Engine) Occupancy() []int64 { return append([]int64(nil), e.occupancy...) }

// SetLevel seeds the placement: every extent overlapping r moves to level
// instantly, free of charge (snapshot-restore seeding, not migration).
func (e *Engine) SetLevel(r guest.Region, level int) {
	if level < 0 || level >= e.cfg.Hierarchy.Levels() {
		panic(fmt.Sprintf("migrate: level %d out of range", level))
	}
	lo, hi := e.clampExtents(r)
	for i := lo; i < hi; i++ {
		e.moveOccupancy(i, level)
		e.level[i] = uint8(level)
	}
}

// moveOccupancy re-books extent i's pages from its current level to level.
func (e *Engine) moveOccupancy(i, level int) {
	pages := e.ExtentRegion(i).Pages
	e.occupancy[e.level[i]] -= pages
	e.occupancy[level] += pages
}

// clampExtents returns the half-open extent range overlapping r.
func (e *Engine) clampExtents(r guest.Region) (int, int) {
	if r.Empty() {
		return 0, 0
	}
	lo := int(int64(r.Start) / e.cfg.ExtentPages)
	hi := int((int64(r.End()) + e.cfg.ExtentPages - 1) / e.cfg.ExtentPages)
	if lo < 0 {
		lo = 0
	}
	if hi > e.nExt {
		hi = e.nExt
	}
	return lo, hi
}

// Touch feeds access heat: perPage line touches per page over region r,
// accumulated into the current epoch (folded into the EWMA at the next
// Tick). Partial extent overlap is weighted by the overlap fraction.
func (e *Engine) Touch(r guest.Region, perPage float64) {
	lo, hi := e.clampExtents(r)
	for i := lo; i < hi; i++ {
		ext := e.ExtentRegion(i)
		ov := overlapPages(ext, r)
		if ov > 0 {
			e.pending[i] += perPage * float64(ov) / float64(ext.Pages)
		}
	}
}

// TouchExtent adds heat directly to one extent.
func (e *Engine) TouchExtent(i int, h float64) { e.pending[i] += h }

func overlapPages(a, b guest.Region) int64 {
	lo := a.Start
	if b.Start > lo {
		lo = b.Start
	}
	hi := a.End()
	if b.End() < hi {
		hi = b.End()
	}
	if hi <= lo {
		return 0
	}
	return int64(hi - lo)
}

// WaitFor returns how long an execution arriving at `now` must wait for
// in-flight migrations covering region r — zero when every overlapped
// extent is settled. ext11 adds this stall to each invocation's latency and
// its stall column.
func (e *Engine) WaitFor(r guest.Region, now simtime.Duration) simtime.Duration {
	var wait simtime.Duration
	lo, hi := e.clampExtents(r)
	for i := lo; i < hi; i++ {
		if d := e.readyAt[i] - now; d > wait {
			wait = d
		}
	}
	return wait
}

// jitter is the deterministic tie-break: a splitmix64 of (seed, extent),
// stable across epochs so equal-heat extents do not churn between tiers.
func jitter(seed int64, extent int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(extent)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rank orders the extents for this epoch. hot is (heat desc, jitter asc,
// index asc): the order of the pack and of promotions. cold is (heat asc,
// jitter asc, index asc): the order of demotions and evictions. cold is not
// hot reversed: it takes hot's equal-heat groups in reverse order, each
// group as it stands, so ties keep the jitter order in both. Each bounded
// level's victim list is cold filtered by the extents' levels at the start
// of the epoch. The first epoch sorts every extent; later ones rerank.
func (e *Engine) rank() {
	if len(e.hot) == e.nExt {
		e.rerank()
	} else {
		e.hot = slices.Grow(e.hot[:0], e.nExt)
		for i, h := range e.heat {
			e.hot = append(e.hot, rankKey{heat: h, jit: e.jit[i], i: int32(i)})
		}
		slices.SortFunc(e.hot, hotter)
	}

	e.cold = slices.Grow(e.cold[:0], e.nExt)
	for end := len(e.hot); end > 0; {
		start := end - 1
		for start > 0 && e.hot[start-1].heat == e.hot[start].heat {
			start--
		}
		for _, k := range e.hot[start:end] {
			e.cold = append(e.cold, k.i)
		}
		end = start
	}

	for l := range e.victims {
		e.victims[l] = e.victims[l][:0]
		e.vnext[l] = 0
	}
	for _, i := range e.cold {
		if l := int(e.level[i]); l < len(e.victims) {
			e.victims[l] = append(e.victims[l], i)
		}
	}
}

// rerank turns the previous epoch's hot order into this epoch's. An
// untouched extent only decayed, and scaling by Decay keeps the order of
// distinct heats unless rounding (or Decay 0) makes two of them equal,
// when the tie falls to the jitter. So the untouched extents keep their places, one
// linear pass checks their order, and they get a full sort only if it
// broke. The touched extents are sorted on their own and merged in. The
// result is the same total order a full sort gives.
func (e *Engine) rerank() {
	kept, sorted := e.hot[:0], true
	e.fresh = e.fresh[:0]
	for _, k := range e.hot {
		k.heat = e.heat[k.i]
		if e.touched[k.i] {
			e.fresh = append(e.fresh, k)
			continue
		}
		if n := len(kept); n > 0 && hotter(kept[n-1], k) > 0 {
			sorted = false
		}
		kept = append(kept, k)
	}
	if !sorted {
		slices.SortFunc(kept, hotter)
	}
	slices.SortFunc(e.fresh, hotter)
	out := slices.Grow(e.spare[:0], e.nExt)
	a, b := 0, 0
	for a < len(kept) && b < len(e.fresh) {
		if hotter(kept[a], e.fresh[b]) < 0 {
			out = append(out, kept[a])
			a++
		} else {
			out = append(out, e.fresh[b])
			b++
		}
	}
	out = append(append(out, kept[a:]...), e.fresh[b:]...)
	e.spare, e.hot = e.hot, out
}

// Tick ends the current epoch at virtual time `now`: folds pending heat into
// the EWMA, computes the desired packing, and executes migrations under the
// policy and this epoch's bandwidth budget. It returns the events scheduled
// by this tick, in a buffer the next Tick reuses.
func (e *Engine) Tick(now simtime.Duration) []Event {
	e.epoch++
	e.stats.Epochs++
	for i, p := range e.pending {
		e.heat[i] = e.cfg.Decay*e.heat[i] + p
		e.pending[i] = 0
		e.touched[i] = p != 0
	}
	if e.cfg.Policy == PolicyStatic {
		return nil
	}

	oracle := e.cfg.Policy == PolicyOracle
	e.rank()
	desired := e.packDesired(oracle)

	e.events = e.events[:0]
	// The daemon's schedule cursor: migrations serialize on the daemon and
	// this epoch may schedule at most one epoch of moving time.
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
		e.logEvent(Event{
			At: at, Done: done, Extent: i, Region: region,
			From: from, To: to, Reason: reason, Heat: e.heat[i],
		})
	}

	// roomAt finds the highest level in [want, bottom] with room for pages,
	// starting at the wanted level and cascading down — "demotion under a
	// full lower tier" lands one level deeper (the bottom is unbounded).
	roomAt := func(want int, pages int64) int {
		for l := want; l < e.cfg.Hierarchy.Levels(); l++ {
			if e.occupancy[l]+pages <= e.cfg.Hierarchy.Capacity(l) {
				return l
			}
		}
		return e.cfg.Hierarchy.Bottom()
	}

	cooled := func(i int32) bool {
		return oracle || int(e.epoch-e.movedAt[i]) >= e.cfg.MinResidencyEpochs
	}

	// Background demotion (full-migration and oracle): drain cold extents
	// down, coldest first, so reclamation frees capacity before promotions
	// need it.
	if e.cfg.Policy == PolicyFull || oracle {
		e.cand = e.cand[:0]
		for _, i := range e.cold {
			if desired[i] > e.level[i] && cooled(i) {
				e.cand = append(e.cand, i)
			}
		}
		for _, i := range e.cand {
			if !budgetLeft() {
				break
			}
			exec(int(i), roomAt(int(desired[i]), e.ExtentRegion(int(i)).Pages), ReasonDemote)
		}
	}

	// Promotions, hottest first. A full target tier evicts its coldest
	// incumbent one level down (cascading past full tiers) to make room.
	e.cand = e.cand[:0]
	for _, k := range e.hot {
		if desired[k.i] < e.level[k.i] && cooled(k.i) {
			e.cand = append(e.cand, k.i)
		}
	}
	e.promoted = e.promoted[:0]
	for _, i := range e.cand {
		if !budgetLeft() {
			break
		}
		target := int(desired[i])
		if !e.makeRoom(target, e.ExtentRegion(int(i)).Pages, exec, roomAt, budgetLeft) {
			continue
		}
		exec(int(i), target, ReasonPromote)
		e.promoted = append(e.promoted, i)
	}

	// Prefetch-on-promote: pull each promoted extent's address-space
	// successors to the same level — sequential access means they are the
	// likely-next pages.
	if e.cfg.PrefetchExtents > 0 {
		for _, pi := range e.promoted {
			i := int(pi)
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
	return e.events
}

// makeRoom evicts coldest incumbents of `target` (one level down, cascading
// past full tiers) until `pages` fit, and reports whether it succeeded.
// Victims come off target's coldest-first list through a forward-only
// cursor. That is exact: heat does not change inside Tick, and an extent
// that moves this epoch, out of target or into it, has movedAt == epoch and
// is never a victim again this epoch, so an entry the cursor skips stays
// ineligible.
func (e *Engine) makeRoom(target int, pages int64,
	exec func(i, to int, reason Reason), roomAt func(int, int64) int, budgetLeft func() bool) bool {
	victims := e.victims[target]
	for e.occupancy[target]+pages > e.cfg.Hierarchy.Capacity(target) {
		if !budgetLeft() {
			return false
		}
		for e.vnext[target] < len(victims) {
			if i := victims[e.vnext[target]]; int(e.level[i]) == target && e.movedAt[i] != e.epoch {
				break
			}
			e.vnext[target]++
		}
		if e.vnext[target] == len(victims) {
			return false // nothing evictable (everything moved this epoch)
		}
		victim := int(victims[e.vnext[target]])
		exec(victim, roomAt(target+1, e.ExtentRegion(victim).Pages), ReasonEvict)
	}
	return true
}

// packDesired greedily assigns extents to tiers by heat under the capacity
// vector. Unless `oracle`, incumbents of a tier compete with their heat
// multiplied by PromoteMargin — the hysteresis that keeps near-ties from
// churning. Each bounded level merges two streams, both in (score desc,
// jitter, index) order: the unassigned extents that are not its incumbents,
// in hot order (their score is their heat), and its unassigned incumbents,
// sorted on their scaled heat. The incumbents need that sort of their own:
// scaling can round two distinct heats to one score (4/3 and its successor
// both become 2.0 at margin 1.5), and the tie then falls to the jitter.
func (e *Engine) packDesired(oracle bool) []uint8 {
	if cap(e.desired) < e.nExt {
		e.desired = make([]uint8, e.nExt)
	}
	desired := e.desired[:e.nExt]
	bottom := uint8(e.cfg.Hierarchy.Bottom())
	for i := range desired {
		desired[i] = bottom
	}
	// An extent is assigned once desired[i] != bottom.
	for l := uint8(0); l < bottom; l++ {
		incumbent := func(i int32) bool { return !oracle && e.level[i] == l }
		e.inc = e.inc[:0]
		if !oracle {
			for _, k := range e.hot {
				if e.level[k.i] == l && desired[k.i] == bottom {
					k.heat *= e.cfg.PromoteMargin
					e.inc = append(e.inc, k)
				}
			}
			slices.SortFunc(e.inc, hotter)
		}
		capLeft := e.cfg.Hierarchy.Capacity(int(l))
		for a, b := 0, 0; ; {
			for a < len(e.hot) && (desired[e.hot[a].i] != bottom || incumbent(e.hot[a].i)) {
				a++
			}
			var k rankKey
			if a < len(e.hot) && (b == len(e.inc) || hotter(e.hot[a], e.inc[b]) < 0) {
				k, a = e.hot[a], a+1
			} else if b < len(e.inc) {
				k, b = e.inc[b], b+1
			} else {
				break
			}
			pages := e.ExtentRegion(int(k.i)).Pages
			if pages > capLeft {
				break
			}
			// Cold extents never deserve a bounded tier: zero heat stays
			// at the bottom so empty capacity is not filled with garbage.
			if e.heat[k.i] <= 0 {
				break
			}
			desired[k.i] = l
			capLeft -= pages
		}
	}
	return desired
}

// Stats returns the engine's activity summary.
func (e *Engine) Stats() Stats { return e.stats }

// FNV-1a, 64-bit: the log checksum's offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// logEvent appends ev to the epoch's events and folds its fields into the
// log checksum as little-endian words, the heat in millionths.
func (e *Engine) logEvent(ev Event) {
	e.events = append(e.events, ev)
	for _, v := range [...]uint64{
		uint64(ev.At), uint64(ev.Done), uint64(ev.Extent),
		uint64(ev.Region.Start), uint64(ev.Region.Pages),
		uint64(ev.From), uint64(ev.To), uint64(ev.Reason),
		uint64(int64(ev.Heat * 1e6)),
	} {
		for k := 0; k < 8; k++ {
			e.sum ^= v & 0xff
			e.sum *= fnvPrime64
			v >>= 8
		}
	}
}

// LogChecksum returns the FNV-1a 64 of every migration the engine has
// scheduled, in schedule order — the byte-determinism witness the
// serial-vs-parallel tests compare.
func (e *Engine) LogChecksum() uint64 { return e.sum }

// Package keepalive implements function keep-alive caching — the orthogonal
// cold-start mechanism the paper positions TOSS alongside (§VI-A): "TOSS can
// keep the VM alive on both tiers until evicted". The policy is the
// greedy-dual keep-alive of FaasCache (Fuerst & Sharma, ASPLOS'21), extended
// to be tier-aware: a warm TOSS VM occupies its fast and slow footprints in
// separate capacity pools, and its eviction priority weighs the cold-start
// time it saves against the *billed* memory it pins, using the paper's
// per-tier prices.
package keepalive

import (
	"fmt"
	"sort"

	"toss/internal/costmodel"
	"toss/internal/guest"
	"toss/internal/simtime"
)

// Item is one warm (paused) VM kept alive.
type Item struct {
	Function string
	// FastBytes and SlowBytes are the VM's per-tier resident sizes.
	FastBytes int64
	SlowBytes int64
	// ColdStart is the setup time a hit saves.
	ColdStart simtime.Duration
	// freq counts hits since admission (greedy-dual frequency term).
	freq int64
	// priority is the greedy-dual keep-alive priority.
	priority float64
}

// weightedSize returns the billed size of the item in fast-tier-equivalent
// bytes: slow bytes are discounted by the tier cost ratio.
func (it *Item) weightedSize(m costmodel.Model) float64 {
	return float64(it.FastBytes) + float64(it.SlowBytes)*(m.CostSlow/m.CostFast)
}

// computePriority is the greedy-dual-size-frequency form used by FaasCache:
// clock + freq * cost / size, with cost = saved cold-start nanoseconds and
// size = billed bytes.
func (it *Item) computePriority(clock float64, m costmodel.Model) float64 {
	size := it.weightedSize(m)
	if size <= 0 {
		size = 1
	}
	return clock + float64(it.freq)*float64(it.ColdStart)/size
}

// Stats counts cache outcomes.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Rejected  int64
}

// Cache keeps warm VMs under per-tier capacity limits.
type Cache struct {
	fastCap, slowCap   int64
	fastUsed, slowUsed int64
	cost               costmodel.Model
	clock              float64
	items              map[string]*Item
	stats              Stats
	// free recycles Item slots removed from the map so steady-state
	// admit/remove churn (one admit per dispatch in the cluster core) does
	// not allocate.
	free []*Item
}

// New returns a cache with the given per-tier byte capacities.
func New(fastCap, slowCap int64, cost costmodel.Model) (*Cache, error) {
	if fastCap < 0 || slowCap < 0 {
		return nil, fmt.Errorf("keepalive: negative capacity")
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		fastCap: fastCap,
		slowCap: slowCap,
		cost:    cost,
		items:   make(map[string]*Item),
	}, nil
}

// Contains reports presence without counting a lookup.
func (c *Cache) Contains(fn string) bool {
	_, ok := c.items[fn]
	return ok
}

// Take removes and returns the warm VM for a hit that consumes it (the
// invocation runs in the cached VM; re-admit it afterwards with Admit).
// Take counts as a lookup for the hit/miss statistics.
func (c *Cache) Take(fn string) (Item, bool) {
	it, ok := c.items[fn]
	if !ok {
		c.stats.Misses++
		return Item{}, false
	}
	c.stats.Hits++
	it.freq++
	// Copy before remove: remove recycles *it onto the free list, and a
	// later admit may overwrite that slot.
	out := *it
	c.remove(fn)
	return out, true
}

// Drop removes an item without counting a lookup (idle expiry, teardown).
// It reports whether the item existed.
func (c *Cache) Drop(fn string) bool {
	if _, ok := c.items[fn]; !ok {
		return false
	}
	c.remove(fn)
	return true
}

// Flush evicts every cached VM at once — the keep-alive eviction storm an
// injected fault.SiteEvictStorm models (a host OOM kill or capacity
// reclaim). Each removal counts as an eviction. The evicted names return
// in sorted order so callers stay deterministic.
func (c *Cache) Flush() []string {
	if len(c.items) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.items))
	for fn := range c.items {
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		c.remove(fn)
		c.stats.Evictions++
	}
	return names
}

// Admit inserts (or refreshes) a warm VM, evicting minimum-priority items
// until it fits. It returns the evicted function names; admitted is false
// when the item cannot fit even in an empty cache (it is then not kept).
func (c *Cache) Admit(it Item) (evicted []string, admitted bool) {
	_, admitted = c.admit(it, &evicted)
	return evicted, admitted
}

// AdmitQuiet is Admit for callers that only need the eviction count: it
// skips materializing the evicted-name slice, so the steady-state path is
// allocation-free. The cluster core admits one item per dispatch and would
// otherwise pay an allocation per eviction for names it never reads.
func (c *Cache) AdmitQuiet(it Item) (evictions int, admitted bool) {
	return c.admit(it, nil)
}

// admit is the shared insertion path; collect, when non-nil, receives the
// evicted function names in eviction order.
func (c *Cache) admit(it Item, collect *[]string) (evictions int, admitted bool) {
	if it.FastBytes > c.fastCap || it.SlowBytes > c.slowCap {
		c.stats.Rejected++
		return 0, false
	}
	if old, ok := c.items[it.Function]; ok {
		it.freq = old.freq
		c.remove(it.Function)
	}
	if it.freq == 0 {
		it.freq = 1
	}
	for c.fastUsed+it.FastBytes > c.fastCap || c.slowUsed+it.SlowBytes > c.slowCap {
		victim := c.minPriority()
		if victim == "" {
			c.stats.Rejected++
			return evictions, false
		}
		// Greedy-dual: the clock advances to the evicted priority, aging
		// the rest of the cache.
		c.clock = c.items[victim].priority
		c.remove(victim)
		c.stats.Evictions++
		evictions++
		if collect != nil {
			*collect = append(*collect, victim)
		}
	}
	slot := c.slot()
	*slot = it
	slot.priority = slot.computePriority(c.clock, c.cost)
	c.items[it.Function] = slot
	c.fastUsed += it.FastBytes
	c.slowUsed += it.SlowBytes
	return evictions, true
}

// slot pops a recycled Item or allocates a fresh one.
func (c *Cache) slot() *Item {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	return new(Item)
}

// remove drops an item, releases its capacity, and recycles its slot.
func (c *Cache) remove(fn string) {
	it, ok := c.items[fn]
	if !ok {
		return
	}
	c.fastUsed -= it.FastBytes
	c.slowUsed -= it.SlowBytes
	delete(c.items, fn)
	c.free = append(c.free, it)
}

// minPriority returns the function with the lowest priority ("" if empty).
// Priority ties break by function name so eviction order never depends on
// map iteration order — the whole simulation must be bit-reproducible.
func (c *Cache) minPriority() string {
	best := ""
	var bestP float64
	for fn, it := range c.items {
		if best == "" || it.priority < bestP || (it.priority == bestP && fn < best) {
			best, bestP = fn, it.priority
		}
	}
	return best
}

// Occupancy returns the used bytes per tier.
func (c *Cache) Occupancy() (fast, slow int64) { return c.fastUsed, c.slowUsed }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ItemFor builds a cache item from a tiered VM's footprint in pages.
func ItemFor(fn string, fastPages, slowPages int64, coldStart simtime.Duration) Item {
	return Item{
		Function:  fn,
		FastBytes: fastPages * guest.PageSize,
		SlowBytes: slowPages * guest.PageSize,
		ColdStart: coldStart,
	}
}

// Package keepalive implements function keep-alive caching — the orthogonal
// cold-start mechanism the paper positions TOSS alongside (§VI-A): "TOSS can
// keep the VM alive on both tiers until evicted". The policy is
// greedy-dual-size, the keep-alive policy family of FaasCache (Fuerst &
// Sharma, ASPLOS'21) without its frequency term, extended to be tier-aware:
// a warm TOSS VM occupies its fast and slow footprints in separate capacity
// pools, and its eviction priority weighs the cold-start time it saves
// against the *billed* memory it pins, using the paper's per-tier prices.
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
	// priority is the greedy-dual-size keep-alive priority.
	priority float64
}

// weightedSize returns the billed size of the item in fast-tier-equivalent
// bytes: slow bytes are discounted by the tier cost ratio.
func (it *Item) weightedSize(m costmodel.Model) float64 {
	return float64(it.FastBytes) + float64(it.SlowBytes)*(m.CostSlow/m.CostFast)
}

// computePriority is the greedy-dual-size priority clock + cost / size,
// with cost = saved cold-start nanoseconds and size = billed bytes.
func (it *Item) computePriority(clock float64, m costmodel.Model) float64 {
	size := it.weightedSize(m)
	if size <= 0 {
		size = 1
	}
	return clock + float64(it.ColdStart)/size
}

// Stats counts cache outcomes.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Rejected  int64
}

// Cache keeps warm VMs under per-tier capacity limits. Its items live by
// value in a slice, at most one per function, and lookups scan it: a host
// holds at most one warm VM per function and the catalog has ten, so the
// scan is short and admit/take churn never allocates.
type Cache struct {
	fastCap, slowCap   int64
	fastUsed, slowUsed int64
	cost               costmodel.Model
	clock              float64
	items              []Item
	stats              Stats
}

// New returns a cache with the given per-tier byte capacities.
func New(fastCap, slowCap int64, cost costmodel.Model) (*Cache, error) {
	if fastCap < 0 || slowCap < 0 {
		return nil, fmt.Errorf("keepalive: negative capacity")
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	return &Cache{fastCap: fastCap, slowCap: slowCap, cost: cost}, nil
}

// find returns the index of fn's warm VM, or -1.
func (c *Cache) find(fn string) int {
	for i := range c.items {
		if c.items[i].Function == fn {
			return i
		}
	}
	return -1
}

// Contains reports presence without counting a lookup.
func (c *Cache) Contains(fn string) bool { return c.find(fn) >= 0 }

// Take removes and returns the warm VM for a hit that consumes it (the
// invocation runs in the cached VM; re-admit it afterwards with Admit).
// Take counts as a lookup for the hit/miss statistics.
func (c *Cache) Take(fn string) (Item, bool) {
	i := c.find(fn)
	if i < 0 {
		c.stats.Misses++
		return Item{}, false
	}
	c.stats.Hits++
	out := c.items[i]
	c.removeAt(i)
	return out, true
}

// Drop removes an item without counting a lookup (idle expiry, teardown).
// It reports whether the item existed.
func (c *Cache) Drop(fn string) bool {
	i := c.find(fn)
	if i < 0 {
		return false
	}
	c.removeAt(i)
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
	names := make([]string, len(c.items))
	for i := range c.items {
		names[i] = c.items[i].Function
	}
	sort.Strings(names)
	c.stats.Evictions += int64(len(c.items))
	c.items = c.items[:0]
	c.fastUsed, c.slowUsed = 0, 0
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
	if i := c.find(it.Function); i >= 0 {
		c.removeAt(i)
	}
	for c.fastUsed+it.FastBytes > c.fastCap || c.slowUsed+it.SlowBytes > c.slowCap {
		v := c.minPriority()
		if v < 0 {
			c.stats.Rejected++
			return evictions, false
		}
		// Greedy-dual: the clock advances to the evicted priority, aging
		// the rest of the cache.
		c.clock = c.items[v].priority
		if collect != nil {
			*collect = append(*collect, c.items[v].Function)
		}
		c.removeAt(v)
		c.stats.Evictions++
		evictions++
	}
	it.priority = it.computePriority(c.clock, c.cost)
	c.items = append(c.items, it)
	c.fastUsed += it.FastBytes
	c.slowUsed += it.SlowBytes
	return evictions, true
}

// removeAt drops item i and releases its capacity. The last item moves
// into its slot; the order of items carries no meaning.
func (c *Cache) removeAt(i int) {
	c.fastUsed -= c.items[i].FastBytes
	c.slowUsed -= c.items[i].SlowBytes
	last := len(c.items) - 1
	c.items[i] = c.items[last]
	c.items = c.items[:last]
}

// minPriority returns the index of the lowest-priority item (-1 if
// empty). Priority ties break by function name so the eviction order never
// depends on where items sit in the slice — the whole simulation must be
// bit-reproducible.
func (c *Cache) minPriority() int {
	if len(c.items) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(c.items); i++ {
		it, b := &c.items[i], &c.items[best]
		if it.priority < b.priority || (it.priority == b.priority && it.Function < b.Function) {
			best = i
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

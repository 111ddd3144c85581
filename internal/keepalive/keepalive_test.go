package keepalive

import (
	"fmt"
	"testing"
	"testing/quick"

	"toss/internal/costmodel"
	"toss/internal/simtime"
)

func newCache(t *testing.T, fastCap, slowCap int64) *Cache {
	t.Helper()
	c, err := New(fastCap, slowCap, costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func item(fn string, fast, slow int64, cold simtime.Duration) Item {
	return Item{Function: fn, FastBytes: fast, SlowBytes: slow, ColdStart: cold}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 0, costmodel.Default()); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := New(1, 1, costmodel.Model{}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestAdmitAndLookup(t *testing.T) {
	c := newCache(t, 1000, 1000)
	if c.Lookup("a") {
		t.Error("hit on empty cache")
	}
	evicted, ok := c.Admit(item("a", 100, 200, simtime.Millisecond))
	if !ok || len(evicted) != 0 {
		t.Fatalf("Admit = %v, %v", evicted, ok)
	}
	if !c.Lookup("a") || !c.Contains("a") {
		t.Error("miss after admit")
	}
	fast, slow := c.Occupancy()
	if fast != 100 || slow != 200 {
		t.Errorf("occupancy = %d/%d", fast, slow)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTake(t *testing.T) {
	c := newCache(t, 1000, 1000)
	c.Admit(item("a", 100, 0, simtime.Millisecond))
	it, ok := c.Take("a")
	if !ok || it.Function != "a" {
		t.Fatalf("Take = %+v, %v", it, ok)
	}
	if c.Contains("a") || len(c.items) != 0 {
		t.Error("Take left item behind")
	}
	if fast, _ := c.Occupancy(); fast != 0 {
		t.Error("Take did not release capacity")
	}
	if _, ok := c.Take("a"); ok {
		t.Error("Take hit on missing item")
	}
}

func TestEvictionPrefersLowValue(t *testing.T) {
	c := newCache(t, 1000, 0)
	// "cheap" saves little per byte; "precious" saves a lot.
	c.Admit(item("cheap", 600, 0, simtime.Microsecond))
	c.Admit(item("precious", 300, 0, 100*simtime.Millisecond))
	// Admitting another 300 fast bytes must evict "cheap".
	evicted, ok := c.Admit(item("new", 300, 0, 50*simtime.Millisecond))
	if !ok {
		t.Fatal("admission failed")
	}
	if len(evicted) != 1 || evicted[0] != "cheap" {
		t.Errorf("evicted %v, want [cheap]", evicted)
	}
	if !c.Contains("precious") || !c.Contains("new") {
		t.Error("wrong survivors")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestFrequencyProtectsHotFunctions(t *testing.T) {
	c := newCache(t, 1000, 0)
	c.Admit(item("hot", 500, 0, simtime.Millisecond))
	c.Admit(item("cold", 400, 0, simtime.Millisecond))
	for i := 0; i < 50; i++ {
		c.Lookup("hot")
	}
	evicted, ok := c.Admit(item("new", 500, 0, simtime.Millisecond))
	if !ok {
		t.Fatal("admission failed")
	}
	for _, fn := range evicted {
		if fn == "hot" {
			t.Error("frequently-hit function evicted before cold one")
		}
	}
}

func TestOversizedItemRejected(t *testing.T) {
	c := newCache(t, 100, 100)
	if _, ok := c.Admit(item("big", 200, 0, simtime.Second)); ok {
		t.Error("oversized fast item admitted")
	}
	if _, ok := c.Admit(item("big2", 0, 200, simtime.Second)); ok {
		t.Error("oversized slow item admitted")
	}
	if c.Stats().Rejected != 2 {
		t.Errorf("rejected = %d", c.Stats().Rejected)
	}
}

func TestReadmitRefreshesNotDuplicates(t *testing.T) {
	c := newCache(t, 1000, 1000)
	c.Admit(item("a", 100, 100, simtime.Millisecond))
	c.Lookup("a")
	c.Admit(item("a", 150, 100, simtime.Millisecond)) // grew
	if len(c.items) != 1 {
		t.Fatalf("Len = %d after re-admit", len(c.items))
	}
	fast, _ := c.Occupancy()
	if fast != 150 {
		t.Errorf("occupancy after re-admit = %d, want 150", fast)
	}
}

func TestTierAwareEviction(t *testing.T) {
	// Two items with identical cold-start savings and identical *total*
	// footprints; one keeps everything fast, the other mostly slow. The
	// mostly-slow item has the smaller billed size -> higher priority, so
	// the all-fast item is the eviction victim.
	c := newCache(t, 2000, 2000)
	c.Admit(item("allfast", 1000, 0, simtime.Millisecond))
	c.Admit(item("tiered", 100, 900, simtime.Millisecond))
	evicted, ok := c.Admit(item("new", 1500, 0, simtime.Millisecond))
	if !ok {
		t.Fatal("admission failed")
	}
	if len(evicted) != 1 || evicted[0] != "allfast" {
		t.Errorf("evicted %v, want [allfast] (tier-aware billing)", evicted)
	}
}

func TestAdmitWhenNothingEvictable(t *testing.T) {
	// A fits alone; admitting B that also fits alone but not together must
	// evict A (not reject B).
	c := newCache(t, 100, 0)
	c.Admit(item("a", 80, 0, simtime.Millisecond))
	evicted, ok := c.Admit(item("b", 80, 0, simtime.Second))
	if !ok || len(evicted) != 1 {
		t.Errorf("Admit = %v, %v", evicted, ok)
	}
}

func TestDrop(t *testing.T) {
	c := newCache(t, 1000, 1000)
	c.Admit(item("a", 100, 50, simtime.Millisecond))
	if !c.Drop("a") {
		t.Fatal("Drop missed existing item")
	}
	if c.Contains("a") {
		t.Error("item survived Drop")
	}
	fast, slow := c.Occupancy()
	if fast != 0 || slow != 0 {
		t.Error("Drop did not release capacity")
	}
	if c.Drop("a") {
		t.Error("Drop hit a missing item")
	}
	// Drop is not a lookup: stats untouched.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Drop counted as lookup: %+v", st)
	}
}

// Property: occupancy never exceeds capacity and always equals the sum of
// resident items, under arbitrary admit/lookup/take sequences.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c, err := New(1000, 2000, costmodel.Default())
		if err != nil {
			return false
		}
		resident := map[string]Item{}
		for i, op := range ops {
			fn := fmt.Sprintf("f%d", op%8)
			switch op % 3 {
			case 0:
				it := item(fn, int64(op%10)*50, int64(op%7)*100, simtime.Duration(op)*simtime.Microsecond)
				evicted, ok := c.Admit(it)
				for _, e := range evicted {
					delete(resident, e)
				}
				if ok {
					resident[fn] = it
				} else if c.Contains(fn) {
					return false // failed admit must not leave the item
				} else {
					delete(resident, fn)
				}
			case 1:
				c.Lookup(fn)
			case 2:
				if _, ok := c.Take(fn); ok {
					delete(resident, fn)
				}
			}
			fast, slow := c.Occupancy()
			if fast > 1000 || slow > 2000 || fast < 0 || slow < 0 {
				return false
			}
			var wantFast, wantSlow int64
			for _, it := range resident {
				wantFast += it.FastBytes
				wantSlow += it.SlowBytes
			}
			if fast != wantFast || slow != wantSlow || len(c.items) != len(resident) {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlushEvictsEverythingSorted(t *testing.T) {
	c := newCache(t, 1000, 1000)
	for _, fn := range []string{"zeta", "alpha", "mid"} {
		if _, ok := c.Admit(item(fn, 10, 10, simtime.Millisecond)); !ok {
			t.Fatalf("admit %s failed", fn)
		}
	}
	names := c.Flush()
	if want := []string{"alpha", "mid", "zeta"}; len(names) != 3 ||
		names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("Flush = %v, want %v", names, want)
	}
	if fast, slow := c.Occupancy(); fast != 0 || slow != 0 {
		t.Errorf("occupancy after flush = %d/%d, want empty", fast, slow)
	}
	if c.Contains("alpha") {
		t.Error("flushed entry still present")
	}
	if st := c.Stats(); st.Evictions != 3 {
		t.Errorf("Evictions = %d, want 3", st.Evictions)
	}
	if got := c.Flush(); got != nil {
		t.Errorf("Flush of empty cache = %v, want nil", got)
	}
}

// Lookup reports whether a warm VM exists for the function, counting the
// outcome and refreshing the item's priority on a hit: a hit that keeps the
// VM cached, where Take hands it out.
func (c *Cache) Lookup(fn string) bool {
	i := c.find(fn)
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	it := &c.items[i]
	it.freq++
	it.priority = it.computePriority(c.clock, c.cost)
	return true
}

package workload

import (
	"testing"

	"toss/internal/access"
)

func TestTraceCacheHitsSameCell(t *testing.T) {
	spec := ByNameMust("compress")
	a, err := spec.Trace(II, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Trace(II, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (function, level, seed) cell returned distinct trace pointers; cache missed")
	}
	c, err := spec.Trace(II, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds share a trace pointer")
	}
}

func TestTraceCacheBounded(t *testing.T) {
	spec := ByNameMust("float_operation")
	for seed := int64(1); seed <= int64(traceCacheLimit)+50; seed++ {
		if _, err := spec.Trace(I, seed); err != nil {
			t.Fatal(err)
		}
	}
	if n := traceCache.len(); n > traceCacheLimit {
		t.Errorf("trace cache holds %d entries, limit %d", n, traceCacheLimit)
	}
}

func TestLayoutMemoized(t *testing.T) {
	spec := ByNameMust("matmul")
	l1, err := spec.Layout()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := spec.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Errorf("layout not stable: %+v vs %+v", l1, l2)
	}
}

// len reports how many traces the cache holds.
func (c *traceLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// TestTraceCacheRecency: a cell looked up again survives the next
// eviction, the least recently used cell is the one evicted, and a store
// to a cached cell replaces its trace.
func TestTraceCacheRecency(t *testing.T) {
	c := newTraceLRU()
	key := func(i int) traceKey { return traceKey{fn: "f", lv: II, seed: int64(i)} }
	traces := make([]*access.Trace, traceCacheLimit+2)
	for i := range traces {
		traces[i] = &access.Trace{}
	}
	for i := 0; i < traceCacheLimit; i++ {
		c.store(key(i), traces[i])
	}
	if _, ok := c.lookup(key(0)); !ok {
		t.Fatal("a full cache missed its oldest cell")
	}
	c.store(key(traceCacheLimit), traces[traceCacheLimit])
	if _, ok := c.lookup(key(1)); ok {
		t.Fatal("cell 1, the least recently used, survived an eviction")
	}
	c.store(key(traceCacheLimit+1), traces[traceCacheLimit+1])
	if _, ok := c.lookup(key(2)); ok {
		t.Fatal("cell 2, the least recently used, survived an eviction")
	}
	for i := range traces {
		if i == 1 || i == 2 {
			continue
		}
		if tr, ok := c.lookup(key(i)); !ok || tr != traces[i] {
			t.Fatalf("cell %d: got %p (hit %v), want %p", i, tr, ok, traces[i])
		}
	}
	replaced := &access.Trace{}
	c.store(key(5), replaced)
	if tr, _ := c.lookup(key(5)); tr != replaced || c.len() != traceCacheLimit {
		t.Fatalf("store to a cached cell: got %p in a cache of %d, want %p in %d", tr, c.len(), replaced, traceCacheLimit)
	}
}

// TestTraceEventsSizedPerCell: a cell's event count does not depend on the
// seed, so every compile after a cell's first allocates Events at exactly
// its length.
func TestTraceEventsSizedPerCell(t *testing.T) {
	for _, s := range Registry() {
		for _, lv := range Levels {
			first, err := s.Trace(lv, 9_000_001)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(9_000_002); seed <= 9_000_010; seed++ {
				tr, err := s.Trace(lv, seed)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(tr.Events); n != len(first.Events) || cap(tr.Events) != n {
					t.Errorf("%s %v seed %d: %d events in a slice of cap %d, first compile %d",
						s.Name, lv, seed, n, cap(tr.Events), len(first.Events))
				}
			}
		}
	}
}

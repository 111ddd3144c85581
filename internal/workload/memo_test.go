package workload

import (
	"testing"
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
	return len(c.elems)
}

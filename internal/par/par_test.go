package par

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	sq := func(i int, v int) (int, error) { return v * v, nil }

	serial, err := Map(Serial, items, sq)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(New(8), items, sq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if serial[i] != i*i || parallel[i] != i*i {
			t.Fatalf("index %d: serial=%d parallel=%d want %d", i, serial[i], parallel[i], i*i)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(4)
	if res, err := Map(p, nil, func(i int, v int) (int, error) { return v, nil }); err != nil || len(res) != 0 {
		t.Fatalf("empty: res=%v err=%v", res, err)
	}
	res, err := Map(p, []int{7}, func(i int, v int) (int, error) { return v + 1, nil })
	if err != nil || len(res) != 1 || res[0] != 8 {
		t.Fatalf("single: res=%v err=%v", res, err)
	}
}

func TestMapLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	items := make([]int, 64)
	fail := func(i int, v int) (int, error) {
		if i == 3 || i == 40 || i == 63 {
			return 0, fmt.Errorf("cell %d: %w", i, sentinel)
		}
		return v, nil
	}
	for name, p := range map[string]*Pool{"serial": Serial, "parallel": New(8)} {
		_, err := Map(p, items, fail)
		var pe *Error
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %v is not *par.Error", name, err)
		}
		if pe.Index != 3 {
			t.Fatalf("%s: reported index %d, want lowest failing index 3", name, pe.Index)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: %v does not unwrap to sentinel", name, err)
		}
	}
}

func TestSerialEarlyExit(t *testing.T) {
	var calls int
	_, err := Map(Serial, make([]int, 10), func(i int, _ int) (int, error) {
		calls++
		if i == 2 {
			return 0, errors.New("stop")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 3 {
		t.Fatalf("serial map made %d calls after failure at index 2, want 3", calls)
	}
}

// TestNestedMaps checks that Maps issued from inside a Map's fn complete
// (saturated pools run nested work inline rather than deadlocking) and
// stay correct.
func TestNestedMaps(t *testing.T) {
	p := New(4)
	outer := make([]int, 8)
	for i := range outer {
		outer[i] = i
	}
	sums, err := Map(p, outer, func(_ int, o int) (int, error) {
		inner, err := Map(p, outer, func(_ int, v int) (int, error) { return o * v, nil })
		if err != nil {
			return 0, err
		}
		total := 0
		for _, v := range inner {
			total += v
		}
		return total, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7
	for i, s := range sums {
		if s != i*base {
			t.Fatalf("outer %d: sum=%d want %d", i, s, i*base)
		}
	}
}

// TestMapConcurrencyBound verifies the pool never exceeds its worker
// budget, counting the caller as a worker.
func TestMapConcurrencyBound(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak atomic.Int64
	_, err := Map(p, make([]int, 200), func(_ int, _ int) (int, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent workers, budget %d", got, workers)
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct {
		pool *Pool
		want int
	}{
		{nil, 1},
		{&Pool{}, 1},
		{Serial, 1},
		{New(0), 1},
		{New(1), 1},
		{New(6), 6},
	}
	for _, c := range cases {
		if got := c.pool.Workers(); got != c.want {
			t.Fatalf("Workers() = %d, want %d", got, c.want)
		}
	}
}

func TestSinkFoldsSorted(t *testing.T) {
	fold := func(order []int) []string {
		s := NewSink[string]()
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.Record(fmt.Sprintf("cell-%02d", i), fmt.Sprintf("v%d", i))
			}(i)
		}
		wg.Wait()
		s.Record("cell-02", "latest")
		if s.Len() != len(order) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(order))
		}
		return s.Sorted()
	}
	want := []string{"v0", "v1", "latest", "v3", "v4"}
	for _, order := range [][]int{{3, 1, 4, 2, 0}, {0, 2, 4, 1, 3}} {
		if got := fold(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v folded to %v, want %v", order, got, want)
		}
	}

	var nilSink *Sink[int]
	nilSink.Record("x", 1)
	if nilSink.Len() != 0 || nilSink.Sorted() != nil {
		t.Fatal("nil sink must no-op")
	}
}

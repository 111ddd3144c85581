package par

import (
	"sort"
	"sync"
)

// Sink collects one value per named cell from the cells of a parallel run
// and hands them back sorted by cell name. Cells record under a mutex in
// whatever order the pool completes them; folding Sorted afterwards gives
// the same bytes at any worker count — the order Map keeps by input index,
// kept here by name. A nil *Sink no-ops every method.
type Sink[T any] struct {
	mu    sync.Mutex
	cells map[string]T
}

// NewSink returns an empty sink.
func NewSink[T any]() *Sink[T] {
	return &Sink[T]{cells: make(map[string]T)}
}

// Record stores v under the cell name, replacing any earlier value for the
// same cell.
func (s *Sink[T]) Record(cell string, v T) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cells[cell] = v
	s.mu.Unlock()
}

// Len returns the number of recorded cells.
func (s *Sink[T]) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Sorted returns the recorded values in sorted cell-name order.
func (s *Sink[T]) Sorted() []T {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.cells))
	for name := range s.cells {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]T, len(names))
	for i, name := range names {
		out[i] = s.cells[name]
	}
	return out
}

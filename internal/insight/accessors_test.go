package insight

import (
	"fmt"
	"sort"

	"toss/internal/simtime"
)

// The accessors below read a series, a store or an engine directly, and
// DiffDumps compares two dumps as `tossctl report` does. The exporters and
// the CLIs reach the same state through dumps and Compare; the tests use
// these to check what the feeds and rules recorded.

// Points returns the number of observations the series absorbed.
func (s *Series) Points() int64 { return s.points }

// Min returns the smallest observation (0 when empty).
func (s *Series) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Series) Max() float64 { return s.max }

// Last returns the most recent observation and its virtual time.
func (s *Series) Last() (float64, simtime.Duration) { return s.last, s.lastAt }

// First returns the earliest observation and its virtual time.
func (s *Series) First() (float64, simtime.Duration) { return s.first, s.firstAt }

// End returns the right edge of the last live bucket.
func (s *Series) End() simtime.Duration {
	return s.Start + simtime.Duration(len(s.Buckets))*s.Width
}

// Series returns the named series (nil when absent). The returned value is
// live; callers must not mutate it while feeding continues.
func (st *Store) Series(name string) *Series {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.series[name]
}

// Names returns every series name in sorted order.
func (st *Store) Names() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.series))
	for n := range st.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Now returns the store's virtual-time high-water mark.
func (st *Store) Now() simtime.Duration {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.now
}

// Evals returns the number of rule evaluations performed.
func (e *Engine) Evals() int64 {
	if e == nil {
		return 0
	}
	return e.evals
}

// DiffDumps compares two insight dumps cell by cell at the given relative
// threshold. Same-seed runs produce identical dumps and therefore an empty
// section.
func DiffDumps(title string, old, new Dump, threshold float64) (Section, error) {
	if old.Schema != new.Schema {
		return Section{}, fmt.Errorf("insight: schema mismatch: %d vs %d", old.Schema, new.Schema)
	}
	return Compare(title, "insight", DumpCells(old), DumpCells(new), threshold), nil
}

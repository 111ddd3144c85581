package insight

import "fmt"

// The accessors below read an engine directly, and DiffDumps compares two
// dumps as `tossctl report` does. The exporters and the CLIs reach the same
// state through Result, dumps and Compare; the tests use these to check
// what the feeds and rules recorded.

// Alerts returns the fire/resolve edges in feed order.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return e.Result("").Alerts
}

// Firing returns the names of rules currently firing, sorted.
func (e *Engine) Firing() []string {
	if e == nil {
		return nil
	}
	return e.Result("").Firing
}

// Summary returns the named series' summary, and false when the series was
// never observed.
func (e *Engine) Summary(name string) (SeriesSummary, bool) {
	for _, s := range e.Result("").Series {
		if s.Name == name {
			return s, true
		}
	}
	return SeriesSummary{}, false
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

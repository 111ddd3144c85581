package insight

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
)

// The regression sentinel: compare two runs' exported artifacts cell by
// cell and render a machine-checked verdict. `tossctl report` flattens
// pairs of insight dumps, xray attribution dumps, and benchjson reports
// into Cells and judges them all with Compare.

// noiseFloor is the absolute magnitude below which two values are treated
// as equal: sub-nano series values and empty counters flap at 100% relative
// change without it.
const noiseFloor = 1e-9

// VerdictRow is one compared (cell, metric) pair.
type VerdictRow struct {
	// Cell names the compared unit, e.g. "ext10/dram".
	Cell string
	// Metric names the compared number inside the cell, e.g.
	// "series latency_ms mean" or "alert-fires p99-inflation-burn".
	Metric string
	// Old / New are the two runs' values.
	Old, New float64
}

// Delta returns the relative change (new-old)/old; growth from a zero
// baseline reports as 1 (100%).
func (r VerdictRow) Delta() float64 {
	if r.Old == 0 {
		if r.New == 0 {
			return 0
		}
		return 1
	}
	return (r.New - r.Old) / r.Old
}

// Section is one compared artifact pair inside a verdict.
type Section struct {
	// Title labels the pair, normally "old-path -> new-path".
	Title string
	// Kind is the artifact format: "insight", "xray", or "bench".
	Kind string
	// Compared counts (cell, metric) pairs present in both documents.
	Compared int
	// Regressions grew past the threshold; Improvements shrank past it.
	// Both sorted by decreasing |delta|, ties by (cell, metric).
	Regressions  []VerdictRow
	Improvements []VerdictRow
	// OnlyOld / OnlyNew name cells present in one document only.
	OnlyOld, OnlyNew []string
}

// Verdict is the cross-run regression report: one section per compared
// artifact pair, judged at one relative-change threshold.
type Verdict struct {
	// Threshold is the relative change past which a cell regresses.
	Threshold float64
	// Sections are the compared pairs in input order.
	Sections []Section
}

// Regressed returns the total regression count across all sections.
func (v *Verdict) Regressed() int {
	n := 0
	for _, s := range v.Sections {
		n += len(s.Regressions)
	}
	return n
}

// vacuous returns the number of sections whose old artifact had cells but
// whose pair compared none: nothing was checked, which is no pass.
func (v *Verdict) vacuous() int {
	n := 0
	for _, s := range v.Sections {
		if s.Compared == 0 && len(s.OnlyOld) > 0 {
			n++
		}
	}
	return n
}

// Failed reports whether any section regressed or compared nothing — the
// `-fail` exit condition.
func (v *Verdict) Failed() bool { return v.Regressed() > 0 || v.vacuous() > 0 }

// sortRows orders by decreasing |delta|, ties by (cell, metric).
func sortRows(rows []VerdictRow) {
	sort.Slice(rows, func(i, j int) bool {
		di, dj := math.Abs(rows[i].Delta()), math.Abs(rows[j].Delta())
		if di != dj {
			return di > dj
		}
		if rows[i].Cell != rows[j].Cell {
			return rows[i].Cell < rows[j].Cell
		}
		return rows[i].Metric < rows[j].Metric
	})
}

// CellValue is one comparable number of a flattened run artifact: the
// (cell, metric) pair a verdict row names, and its value.
type CellValue struct {
	Cell, Metric string
	Value        float64
}

// Cells is a run artifact flattened for comparison, keyed by the name an
// only-old or only-new line prints for each value.
type Cells map[string]CellValue

// Compare judges two flattened artifacts cell by cell at the given relative
// threshold. Identical artifacts yield a section with no rows.
func Compare(title, kind string, old, new Cells, threshold float64) Section {
	sec := Section{Title: title, Kind: kind}
	for k, ov := range old {
		nv, ok := new[k]
		if !ok {
			sec.OnlyOld = append(sec.OnlyOld, k)
			continue
		}
		sec.Compared++
		if math.Abs(ov.Value) < noiseFloor && math.Abs(nv.Value) < noiseFloor {
			continue
		}
		row := VerdictRow{Cell: ov.Cell, Metric: ov.Metric, Old: ov.Value, New: nv.Value}
		switch d := row.Delta(); {
		case d > threshold:
			sec.Regressions = append(sec.Regressions, row)
		case d < -threshold:
			sec.Improvements = append(sec.Improvements, row)
		}
	}
	for k := range new {
		if _, ok := old[k]; !ok {
			sec.OnlyNew = append(sec.OnlyNew, k)
		}
	}
	sortRows(sec.Regressions)
	sortRows(sec.Improvements)
	sort.Strings(sec.OnlyOld)
	sort.Strings(sec.OnlyNew)
	return sec
}

// DumpCells flattens an insight dump into comparable cells: each series
// contributes its mean, max, and last; each rule contributes its fire-edge
// count.
func DumpCells(d Dump) Cells {
	m := make(Cells)
	add := func(cell, metric string, v float64) {
		m[cell+" / "+metric] = CellValue{Cell: cell, Metric: metric, Value: v}
	}
	for _, c := range d.Cells {
		for _, s := range c.Series {
			add(c.Cell, "series "+s.Name+" mean", float64(s.Mean))
			add(c.Cell, "series "+s.Name+" max", float64(s.Max))
			add(c.Cell, "series "+s.Name+" last", float64(s.Last))
		}
		fires := make(map[string]float64)
		for _, a := range c.Alerts {
			if a.Firing {
				fires[a.Rule]++
			}
		}
		for rule, n := range fires {
			add(c.Cell, "alert-fires "+rule, n)
		}
	}
	return m
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

// verdictLine is the one-line summary shared by both renderers.
func (v *Verdict) verdictLine() string {
	compared := 0
	for _, s := range v.Sections {
		compared += s.Compared
	}
	if v.Regressed() > 0 {
		return fmt.Sprintf("FAIL — %d regression(s) across %d section(s) (%d cells compared)",
			v.Regressed(), len(v.Sections), compared)
	}
	if v.vacuous() > 0 {
		return fmt.Sprintf("FAIL — %d of %d section(s) compared no cells of a non-empty old run",
			v.vacuous(), len(v.Sections))
	}
	return fmt.Sprintf("PASS — no regressions across %d section(s) (%d cells compared)",
		len(v.Sections), compared)
}

// WriteMarkdown renders the verdict as the markdown report `tossctl report`
// prints: one table per section, regressions first, then the PASS/FAIL
// line. Deterministic for a given verdict.
func (v *Verdict) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# toss run verdict\n\n")
	fmt.Fprintf(&b, "Threshold: %.1f%% relative change.\n", v.Threshold*100)
	for _, s := range v.Sections {
		fmt.Fprintf(&b, "\n## %s (%s)\n\n", s.Title, s.Kind)
		if len(s.Regressions)+len(s.Improvements) == 0 {
			fmt.Fprintf(&b, "No cells moved past the threshold (%d compared).\n", s.Compared)
		} else {
			b.WriteString("| status | cell | metric | old | new | delta |\n")
			b.WriteString("|---|---|---|---|---|---|\n")
			for _, r := range s.Regressions {
				fmt.Fprintf(&b, "| REGRESSED | %s | %s | %.4g | %.4g | %+.1f%% |\n",
					r.Cell, r.Metric, r.Old, r.New, r.Delta()*100)
			}
			for _, r := range s.Improvements {
				fmt.Fprintf(&b, "| improved | %s | %s | %.4g | %.4g | %+.1f%% |\n",
					r.Cell, r.Metric, r.Old, r.New, r.Delta()*100)
			}
			fmt.Fprintf(&b, "\n%d cells compared: %d regressed, %d improved.\n",
				s.Compared, len(s.Regressions), len(s.Improvements))
		}
		for _, c := range s.OnlyOld {
			fmt.Fprintf(&b, "- only-old: %s\n", c)
		}
		for _, c := range s.OnlyNew {
			fmt.Fprintf(&b, "- only-new: %s\n", c)
		}
	}
	fmt.Fprintf(&b, "\n## VERDICT: %s\n", v.verdictLine())
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders the verdict as a self-contained HTML page (no scripts,
// dark theme — same conventions as the obs dashboard exporters).
func (v *Verdict) WriteHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`<!doctype html><html><head><meta charset="utf-8"><title>toss run verdict</title><style>
body{background:#111;color:#ddd;font-family:monospace;margin:2em}
h1,h2{color:#fff} table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #444;padding:4px 10px;text-align:left}
.bad{color:#f66}.good{color:#6f6}.verdict{font-size:1.2em;font-weight:bold}
</style></head><body><h1>toss run verdict</h1>`)
	fmt.Fprintf(&b, `<p>Threshold: %.1f%% relative change.</p>`, v.Threshold*100)
	for _, s := range v.Sections {
		fmt.Fprintf(&b, `<h2>%s (%s)</h2>`, html.EscapeString(s.Title), html.EscapeString(s.Kind))
		if len(s.Regressions)+len(s.Improvements) == 0 {
			fmt.Fprintf(&b, `<p>No cells moved past the threshold (%d compared).</p>`, s.Compared)
		} else {
			b.WriteString(`<table><tr><th>status</th><th>cell</th><th>metric</th><th>old</th><th>new</th><th>delta</th></tr>`)
			row := func(class, status string, r VerdictRow) {
				fmt.Fprintf(&b, `<tr class=%q><td>%s</td><td>%s</td><td>%s</td><td>%.4g</td><td>%.4g</td><td>%+.1f%%</td></tr>`,
					class, status, html.EscapeString(r.Cell), html.EscapeString(r.Metric), r.Old, r.New, r.Delta()*100)
			}
			for _, r := range s.Regressions {
				row("bad", "REGRESSED", r)
			}
			for _, r := range s.Improvements {
				row("good", "improved", r)
			}
			b.WriteString(`</table>`)
		}
		for _, c := range s.OnlyOld {
			fmt.Fprintf(&b, `<p>only-old: %s</p>`, html.EscapeString(c))
		}
		for _, c := range s.OnlyNew {
			fmt.Fprintf(&b, `<p>only-new: %s</p>`, html.EscapeString(c))
		}
	}
	fmt.Fprintf(&b, `<p class="verdict">VERDICT: %s</p></body></html>`, html.EscapeString(v.verdictLine()))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

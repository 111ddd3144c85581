package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
)

// Table is the uniform output of every experiment: the rows a paper table
// holds or the series a paper figure plots.
type Table struct {
	// ID is the experiment identifier ("fig5", "table2", ...).
	ID string
	// Title describes what the paper artifact shows.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry the aggregate findings (averages, ratios) the paper
	// quotes in its prose.
	Notes []string

	// claims records every Claim in order, with whether it held.
	claims []claim
}

// claim is one stated finding of a table: its id and whether it held.
type claim struct {
	id    string
	holds bool
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted aggregate note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Claim states one finding of the experiment, evaluated on the values it
// computed: holds is the predicate, and format and args render the note that
// says it. A claim that holds adds that note, or nothing when format is
// empty. A claim that fails adds "WARNING: claim <id> does not hold" and the
// note, so a run at any seed, ratio or scale names the claim that broke.
// Either way the table records the claim; the CSV and JSON shapes do not.
func (t *Table) Claim(id string, holds bool, format string, args ...any) {
	t.claims = append(t.claims, claim{id: id, holds: holds})
	note := fmt.Sprintf(format, args...)
	if !holds {
		warning := "WARNING: claim " + id + " does not hold"
		if note != "" {
			warning += ": " + note
		}
		note = warning
	}
	if note != "" {
		t.Notes = append(t.Notes, note)
	}
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row first, notes omitted).
func (t *Table) CSV() (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(t.Header); err != nil {
		return "", err
	}
	for _, row := range t.Rows {
		if err := w.Write(row); err != nil {
			return "", err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// JSON renders the table as a self-describing JSON document.
func (t *Table) JSON() (string, error) {
	doc := struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data), nil
}

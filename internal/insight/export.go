package insight

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"strconv"
	"strings"
)

// SchemaVersion identifies the insight dump format. The regression sentinel
// refuses to compare documents with mismatched schema versions.
const SchemaVersion = 1

// Result is one cell's exported insight block: the series summaries and
// the alert edges the engine kept, and the rules still firing when the feed
// ended. The json tags are the dump's wire format, in wire
// order, for Dump and the types it holds.
type Result struct {
	// Cell names the run cell, e.g. "ext10/dram" or "faasim/replay".
	Cell string `json:"cell"`
	// Evals counts rule evaluations.
	Evals int64 `json:"evals"`
	// Series are the summaries in sorted-name order.
	Series []SeriesSummary `json:"series"`
	// Alerts are the fire/resolve edges in feed order.
	Alerts []Alert `json:"alerts"`
	// Firing are the rules still firing at the end of the feed, sorted.
	Firing []string `json:"firing"`
}

// Fires returns the number of fire edges in the result.
func (r Result) Fires() int {
	n := 0
	for _, a := range r.Alerts {
		if a.Firing {
			n++
		}
	}
	return n
}

// Dump is a whole run's insight export: one Result per cell, sorted by cell
// name. `tossctl -insight out.json` and `faasim -report out.json` write
// one; `tossctl report` compares two.
type Dump struct {
	// Schema is the dump format version.
	Schema int `json:"schema_version"`
	// Cells are the per-cell results, sorted by cell name.
	Cells []Result `json:"cells"`
}

// fmtValue renders a float with the shortest round-trip representation —
// deterministic for a given value.
func fmtValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteAlertLog renders the deterministic alert-log text: one block per
// cell, one line per fire/resolve edge stamped with virtual time, plus a
// summary line counting edges and naming rules still firing. The bytes are
// identical at any parallelism because cells arrive pre-sorted.
func WriteAlertLog(w io.Writer, results []Result) error {
	var b strings.Builder
	for i, res := range results {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "=== %s ===\n", res.Cell)
		if len(res.Alerts) == 0 {
			b.WriteString("(no alerts)\n")
		}
		for _, a := range res.Alerts {
			fmt.Fprintf(&b, "t=%-12s %-8s %-32s value=%s", a.At, a.State(), a.Rule, fmtValue(float64(a.Value)))
			if a.Blame != "" {
				fmt.Fprintf(&b, "  blame=%s", a.Blame)
			}
			b.WriteByte('\n')
		}
		firing := "none"
		if len(res.Firing) > 0 {
			firing = strings.Join(res.Firing, ", ")
		}
		fmt.Fprintf(&b, "(%d edges; still firing at end: %s)\n", len(res.Alerts), firing)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteDumpJSON renders the dump on one line. Field order is the struct
// order, so the bytes are deterministic for a given document. A NaN or
// infinite value is an error and writes nothing.
func WriteDumpJSON(w io.Writer, d Dump) error {
	return json.NewEncoder(w).Encode(d)
}

// ReadDump parses a dump written by WriteDumpJSON.
func ReadDump(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Dump{}, fmt.Errorf("insight: parse dump: %w", err)
	}
	return d, nil
}

// WriteAlertsHTML renders the alert panel: the rules still firing, the full
// fire/resolve edge log with blame attributions, and the watched series
// summaries. Self-contained (no scripts), same conventions as the other
// dashboard pages. A nil res (no engine attached) renders the empty banner.
func WriteAlertsHTML(w io.Writer, res *Result) error {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>toss alerts</title><style>
body{background:#111;color:#ddd;font-family:monospace;margin:2em}
h1,h2{color:#fff} table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #444;padding:4px 10px;text-align:left}
.fire{color:#f66}.resolve{color:#6f6}.firing{color:#f66;font-weight:bold}
</style></head><body><h1>SLO alerts</h1>
`)
	switch {
	case res == nil:
		b.WriteString("<p>no alert engine attached — run with alerting enabled (faasim -alerts)</p>")
	default:
		if len(res.Firing) > 0 {
			fmt.Fprintf(&b, `<p class="firing">FIRING: %s</p>`, html.EscapeString(strings.Join(res.Firing, ", ")))
		} else {
			b.WriteString("<p>no rules firing</p>")
		}
		fmt.Fprintf(&b, "<p>%d rule evaluations, %d alert edges</p>\n", res.Evals, len(res.Alerts))
		if len(res.Alerts) > 0 {
			b.WriteString("<h2>alert log</h2><table><tr><th>t</th><th>edge</th><th>rule</th><th>value</th><th>blame</th></tr>\n")
			for _, a := range res.Alerts {
				class := "resolve"
				if a.Firing {
					class = "fire"
				}
				fmt.Fprintf(&b, `<tr><td>%s</td><td class=%q>%s</td><td>%s</td><td>%g</td><td>%s</td></tr>`+"\n",
					a.At.Std(), class, a.State(), html.EscapeString(a.Rule), a.Value, html.EscapeString(a.Blame))
			}
			b.WriteString("</table>\n")
		}
		if len(res.Series) > 0 {
			b.WriteString("<h2>series</h2><table><tr><th>series</th><th>points</th><th>min</th><th>mean</th><th>max</th><th>last</th></tr>\n")
			for _, s := range res.Series {
				fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%g</td><td>%g</td><td>%g</td><td>%g</td></tr>\n",
					html.EscapeString(s.Name), s.Points, s.Min, s.Mean, s.Max, s.Last)
			}
			b.WriteString("</table>\n")
		}
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

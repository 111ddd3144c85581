package insight

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"toss/internal/par"
)

// SchemaVersion identifies the insight dump format. The regression sentinel
// refuses to compare documents with mismatched schema versions.
const SchemaVersion = 1

// Result is one cell's exported insight block: the series the store
// absorbed, the alert edges the engine emitted, and the rules still firing
// when the feed ended. The json tags are the dump's wire format, in wire
// order, for Dump and the types it holds.
type Result struct {
	// Cell names the run cell, e.g. "ext10/dram" or "faasim/replay".
	Cell string `json:"cell"`
	// Evals counts rule evaluations.
	Evals int64 `json:"evals"`
	// Series are the store summaries in sorted-name order.
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

// Sink folds per-cell Results from a parallel run by sorted cell name, so
// the alert log and dump bytes are identical at any `par` width.
type Sink = par.Sink[Result]

// NewSink returns an empty sink.
func NewSink() *Sink { return par.NewSink[Result]() }

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

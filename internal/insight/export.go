package insight

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"toss/internal/emit"
	"toss/internal/par"
	"toss/internal/simtime"
)

// SchemaVersion identifies the insight dump format. The regression sentinel
// refuses to compare documents with mismatched schema versions.
const SchemaVersion = 1

// Result is one cell's exported insight block: the series the store
// absorbed, the alert edges the engine emitted, and the rules still firing
// when the feed ended.
type Result struct {
	// Cell names the run cell, e.g. "ext10/dram" or "faasim/replay".
	Cell string
	// Series are the store summaries in sorted-name order.
	Series []SeriesSummary
	// Alerts are the fire/resolve edges in feed order.
	Alerts []Alert
	// Firing are the rules still firing at the end of the feed, sorted.
	Firing []string
	// Evals counts rule evaluations.
	Evals int64
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
	Schema int
	// Cells are the per-cell results, sorted by cell name.
	Cells []Result
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
			fmt.Fprintf(&b, "t=%-12s %-8s %-32s value=%s", a.At, a.State(), a.Rule, fmtValue(a.Value))
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

// The JSON writer is hand-serialized (like xray's and obs's exporters) so
// field order is fixed and the bytes are deterministic for a given dump;
// strings are escaped by emit.JSONString. The reader uses encoding/json over
// mirror structs.

type wireDump struct {
	Schema int        `json:"schema_version"`
	Cells  []wireCell `json:"cells"`
}

type wireCell struct {
	Cell   string       `json:"cell"`
	Evals  int64        `json:"evals"`
	Series []wireSeries `json:"series"`
	Alerts []wireAlert  `json:"alerts"`
	Firing []string     `json:"firing"`
}

type wireSeries struct {
	Name        string  `json:"name"`
	Points      int64   `json:"points"`
	Buckets     int     `json:"buckets"`
	Downsamples int     `json:"downsamples"`
	WidthNs     int64   `json:"width_ns"`
	FirstNs     int64   `json:"first_ns"`
	LastNs      int64   `json:"last_ns"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	Mean        float64 `json:"mean"`
	Last        float64 `json:"last"`
}

type wireAlert struct {
	AtNs  int64   `json:"at_ns"`
	Rule  string  `json:"rule"`
	State string  `json:"state"`
	Value float64 `json:"value"`
	Blame string  `json:"blame,omitempty"`
}

// WriteDumpJSON renders the dump with fixed field order — byte-deterministic
// for a given document.
func WriteDumpJSON(w io.Writer, d Dump) error {
	var b strings.Builder
	b.WriteString(`{"schema_version":`)
	b.WriteString(strconv.Itoa(d.Schema))
	b.WriteString(`,"cells":[`)
	for i, c := range d.Cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"cell":`)
		b.WriteString(emit.JSONString(c.Cell))
		fmt.Fprintf(&b, `,"evals":%d,"series":[`, c.Evals)
		for j, s := range c.Series {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"name":`)
			b.WriteString(emit.JSONString(s.Name))
			fmt.Fprintf(&b, `,"points":%d,"buckets":%d,"downsamples":%d,"width_ns":%d,"first_ns":%d,"last_ns":%d`,
				s.Points, s.Buckets, s.Downsamples, s.Width.Nanoseconds(), s.FirstAt.Nanoseconds(), s.LastAt.Nanoseconds())
			fmt.Fprintf(&b, `,"min":%s,"max":%s,"mean":%s,"last":%s}`,
				fmtValue(s.Min), fmtValue(s.Max), fmtValue(s.Mean), fmtValue(s.Last))
		}
		b.WriteString(`],"alerts":[`)
		for j, a := range c.Alerts {
			if j > 0 {
				b.WriteByte(',')
			}
			state := "resolve"
			if a.Firing {
				state = "fire"
			}
			fmt.Fprintf(&b, `{"at_ns":%d,"rule":%s,"state":%q,"value":%s`,
				a.At.Nanoseconds(), emit.JSONString(a.Rule), state, fmtValue(a.Value))
			if a.Blame != "" {
				b.WriteString(`,"blame":`)
				b.WriteString(emit.JSONString(a.Blame))
			}
			b.WriteByte('}')
		}
		b.WriteString(`],"firing":[`)
		for j, f := range c.Firing {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(emit.JSONString(f))
		}
		b.WriteString(`]}`)
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadDump parses a dump written by WriteDumpJSON.
func ReadDump(r io.Reader) (Dump, error) {
	var wd wireDump
	if err := json.NewDecoder(r).Decode(&wd); err != nil {
		return Dump{}, fmt.Errorf("insight: parse dump: %w", err)
	}
	d := Dump{Schema: wd.Schema}
	for _, wc := range wd.Cells {
		res := Result{Cell: wc.Cell, Evals: wc.Evals, Firing: wc.Firing}
		for _, ws := range wc.Series {
			res.Series = append(res.Series, SeriesSummary{
				Name:        ws.Name,
				Points:      ws.Points,
				Buckets:     ws.Buckets,
				Downsamples: ws.Downsamples,
				Width:       simtime.Duration(ws.WidthNs),
				FirstAt:     simtime.Duration(ws.FirstNs),
				LastAt:      simtime.Duration(ws.LastNs),
				Min:         ws.Min,
				Max:         ws.Max,
				Mean:        ws.Mean,
				Last:        ws.Last,
			})
		}
		for _, wa := range wc.Alerts {
			res.Alerts = append(res.Alerts, Alert{
				At:     simtime.Duration(wa.AtNs),
				Rule:   wa.Rule,
				Firing: wa.State == "fire",
				Value:  wa.Value,
				Blame:  wa.Blame,
			})
		}
		d.Cells = append(d.Cells, res)
	}
	return d, nil
}

package xray

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"toss/internal/emit"
	"toss/internal/simtime"
)

// SchemaVersion identifies the attribution dump format. `tossctl report`
// refuses to compare documents with mismatched schema versions.
const SchemaVersion = 1

// RunDoc is one run's attribution dump: per-experiment reports in run order.
// `tossctl -xray out.json` writes one; `tossctl report` compares two.
type RunDoc struct {
	Schema  int
	Reports []*Report
}

// The JSON writer is hand-serialized (like internal/obs's exporters) so field
// order is fixed and the bytes are deterministic for a given document;
// strings are escaped by emit.JSONString. The reader uses encoding/json over
// mirror structs.

type wireDoc struct {
	Schema      int          `json:"schema_version"`
	Experiments []wireReport `json:"experiments"`
}

type wireReport struct {
	Experiment string         `json:"experiment"`
	Records    int64          `json:"records"`
	TotalNs    int64          `json:"total_ns"`
	Functions  []wireFunction `json:"functions"`
}

type wireFunction struct {
	Label    string        `json:"label"`
	Records  int64         `json:"records"`
	TotalNs  int64         `json:"total_ns"`
	Segments []wireSegment `json:"segments"`
	Marks    []wireMark    `json:"marks,omitempty"`
}

type wireSegment struct {
	ID      string `json:"id"`
	TotalNs int64  `json:"total_ns"`
	Count   int64  `json:"count"`
}

type wireMark struct {
	ID string `json:"id"`
	N  int64  `json:"n"`
}

// WriteJSON renders the document with fixed field order — byte-deterministic
// for a given document (and therefore for a given seed, since Aggregate is
// order-independent).
func WriteJSON(w io.Writer, doc RunDoc) error {
	var b strings.Builder
	b.WriteString(`{"schema_version":`)
	b.WriteString(strconv.Itoa(doc.Schema))
	b.WriteString(`,"experiments":[`)
	for i, r := range doc.Reports {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"experiment":`)
		b.WriteString(emit.JSONString(r.Experiment))
		fmt.Fprintf(&b, `,"records":%d,"total_ns":%d,"functions":[`, r.Records, r.Total.Nanoseconds())
		for j, fr := range r.Functions {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"label":`)
			b.WriteString(emit.JSONString(fr.Label))
			fmt.Fprintf(&b, `,"records":%d,"total_ns":%d,"segments":[`, fr.Records, fr.Total.Nanoseconds())
			for k, s := range fr.Segments {
				if k > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"id":%s,"total_ns":%d,"count":%d}`, emit.JSONString(s.ID), s.Total.Nanoseconds(), s.Count)
			}
			b.WriteByte(']')
			if len(fr.Marks) > 0 {
				b.WriteString(`,"marks":[`)
				for k, m := range fr.Marks {
					if k > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `{"id":%s,"n":%d}`, emit.JSONString(m.ID), m.N)
				}
				b.WriteByte(']')
			}
			b.WriteByte('}')
		}
		b.WriteString(`]}`)
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadJSON parses a document written by WriteJSON.
func ReadJSON(r io.Reader) (RunDoc, error) {
	var wd wireDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&wd); err != nil {
		return RunDoc{}, fmt.Errorf("xray: parse attribution dump: %w", err)
	}
	doc := RunDoc{Schema: wd.Schema}
	for _, wr := range wd.Experiments {
		rep := &Report{
			Experiment: wr.Experiment,
			Records:    wr.Records,
			Total:      simtime.Duration(wr.TotalNs),
		}
		for _, wf := range wr.Functions {
			fr := FunctionReport{Label: wf.Label, Records: wf.Records, Total: simtime.Duration(wf.TotalNs)}
			for _, ws := range wf.Segments {
				fr.Segments = append(fr.Segments, SegmentStat{ID: ws.ID, Total: simtime.Duration(ws.TotalNs), Count: ws.Count})
			}
			for _, wm := range wf.Marks {
				fr.Marks = append(fr.Marks, MarkStat{ID: wm.ID, N: wm.N})
			}
			rep.Functions = append(rep.Functions, fr)
		}
		doc.Reports = append(doc.Reports, rep)
	}
	return doc, nil
}

// WriteCSV renders the document as long-format CSV with a fixed header —
// one row per (experiment, function, segment), rows in document order.
func WriteCSV(w io.Writer, doc RunDoc) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "function", "segment", "total_ns", "count", "records"}); err != nil {
		return err
	}
	for _, r := range doc.Reports {
		for _, fr := range r.Functions {
			for _, s := range fr.Segments {
				if err := cw.Write([]string{
					r.Experiment,
					fr.Label,
					s.ID,
					strconv.FormatInt(s.Total.Nanoseconds(), 10),
					strconv.FormatInt(s.Count, 10),
					strconv.FormatInt(fr.Records, 10),
				}); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

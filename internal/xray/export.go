package xray

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the attribution dump format. `tossctl report`
// refuses to compare documents with mismatched schema versions.
const SchemaVersion = 1

// RunDoc is one run's attribution dump: per-experiment reports in run order.
// `tossctl -xray out.json` writes one; `tossctl report` compares two. The
// json tags are the wire format, in wire order, for RunDoc and the report
// types it holds.
type RunDoc struct {
	Schema  int       `json:"schema_version"`
	Reports []*Report `json:"experiments"`
}

// WriteJSON renders the document on one line. Field order is the struct
// order, so the bytes are deterministic for a given document (and therefore
// for a given seed, since Aggregate is order-independent).
func WriteJSON(w io.Writer, doc RunDoc) error {
	return json.NewEncoder(w).Encode(doc)
}

// ReadJSON parses a document written by WriteJSON. A null report is an
// error, and an empty marks list reads as none, as Aggregate leaves it.
func ReadJSON(r io.Reader) (RunDoc, error) {
	var doc RunDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return RunDoc{}, fmt.Errorf("xray: parse attribution dump: %w", err)
	}
	for i, rep := range doc.Reports {
		if rep == nil {
			return RunDoc{}, fmt.Errorf("xray: parse attribution dump: experiment %d is null", i)
		}
		for j := range rep.Functions {
			if len(rep.Functions[j].Marks) == 0 {
				rep.Functions[j].Marks = nil
			}
		}
	}
	return doc, nil
}

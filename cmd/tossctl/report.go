package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"toss/internal/cliutil"
	"toss/internal/insight"
	"toss/internal/xray"
)

// runReport implements the cross-run regression sentinel:
//
//	tossctl report [-threshold F] [-fail] [-html out] old new [old2 new2 ...]
//
// Each (old, new) pair is one artifact comparison. Both files of a pair are
// sniffed — insight dumps (tossctl -insight), attribution dumps (tossctl
// -xray), or benchmark reports (scripts/benchjson) — and a pair of two
// different kinds is an error. Every kind flattens into the same
// (cell, metric) → value cells, which insight.Compare judges. The verdict
// prints as markdown on stdout naming every regressed (cell, metric) pair,
// -html additionally writes a self-contained page, and -fail turns any
// regression, or a pair that compared none of the old run's cells, into
// exit status 1 — the shape CI consumes. Two same-seed runs produce
// byte-identical artifacts, so a clean pair always reports PASS.
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.25, "relative change past which a cell regresses (0.25 = 25%)")
	fail := fs.Bool("fail", false, "exit 1 when any section regressed or compared nothing (default: report only)")
	htmlOut := fs.String("html", "", "also write the verdict as a self-contained HTML page to this `file`")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: tossctl report [-threshold F] [-fail] [-html out] old new [old2 new2 ...]\n\n"+
			"Compares pairs of run artifacts — insight dumps (tossctl -insight),\n"+
			"attribution dumps (tossctl -xray), or benchmark reports\n"+
			"(scripts/benchjson); formats auto-detected per file, both files of\n"+
			"a pair of one kind — and prints a markdown verdict naming each\n"+
			"regressed (cell, metric) pair.\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 || fs.NArg()%2 != 0 {
		fs.Usage()
		return 2
	}
	verdict := &insight.Verdict{Threshold: *threshold}
	for i := 0; i < fs.NArg(); i += 2 {
		sec, err := reportSection(fs.Arg(i), fs.Arg(i+1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tossctl: report:", err)
			return 1
		}
		verdict.Sections = append(verdict.Sections, sec)
	}
	if err := verdict.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tossctl: report:", err)
		return 1
	}
	if *htmlOut != "" {
		if err := cliutil.WriteFile(*htmlOut, verdict.WriteHTML); err != nil {
			fmt.Fprintln(os.Stderr, "tossctl: report:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tossctl: wrote HTML verdict to %s\n", *htmlOut)
	}
	if *fail && verdict.Failed() {
		return 1
	}
	return 0
}

// reportSection compares one (old, new) artifact pair into a verdict
// section. Both files must be the same kind of artifact at the same schema
// version.
func reportSection(oldPath, newPath string, threshold float64) (insight.Section, error) {
	old, err := loadArtifact(oldPath)
	if err != nil {
		return insight.Section{}, err
	}
	new, err := loadArtifact(newPath)
	if err != nil {
		return insight.Section{}, err
	}
	if old.kind != new.kind {
		return insight.Section{}, fmt.Errorf("cannot compare %s (%s) with %s (%s): a pair must be one kind of artifact",
			oldPath, old.kind, newPath, new.kind)
	}
	if old.schema != new.schema {
		return insight.Section{}, fmt.Errorf("%s: schema mismatch: %d vs %d", old.kind, old.schema, new.schema)
	}
	return insight.Compare(oldPath+" -> "+newPath, old.kind, old.cells, new.cells, threshold), nil
}

// artifact is one run artifact flattened for comparison.
type artifact struct {
	// kind is "insight", "xray", or "bench".
	kind   string
	schema int
	cells  insight.Cells
}

// loadArtifact reads and parses one run artifact file.
func loadArtifact(path string) (artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, err
	}
	a, err := parseArtifact(data)
	if err != nil {
		return artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// parseArtifact sniffs which run artifact a JSON document is — insight
// dumps carry "cells", attribution dumps "experiments", benchjson reports
// "benchmarks" — and flattens it into comparable cells. A document carrying
// none of the three reads as an (empty) attribution dump.
func parseArtifact(data []byte) (artifact, error) {
	var probe struct {
		Experiments []json.RawMessage `json:"experiments"`
		Benchmarks  []json.RawMessage `json:"benchmarks"`
		Cells       []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return artifact{}, err
	}
	switch {
	case probe.Experiments == nil && probe.Benchmarks == nil && probe.Cells != nil:
		d, err := insight.ReadDump(bytes.NewReader(data))
		if err != nil {
			return artifact{}, err
		}
		return artifact{kind: "insight", schema: d.Schema, cells: insight.DumpCells(d)}, nil
	case probe.Experiments == nil && probe.Benchmarks != nil:
		var bd benchDoc
		if err := json.Unmarshal(data, &bd); err != nil {
			return artifact{}, err
		}
		// The schema is left unread, so reports written before benchjson
		// stamped versions still compare against current ones.
		return artifact{kind: "bench", cells: benchCells(bd)}, nil
	}
	doc, err := xray.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return artifact{}, err
	}
	return artifact{kind: "xray", schema: doc.Schema, cells: runDocCells(doc)}, nil
}

// benchDoc mirrors the fields of scripts/benchjson's report that the
// comparison consumes.
type benchDoc struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		Package string  `json:"package"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// runDocCells flattens an attribution dump: one value per (experiment,
// function, segment), the mean attributed nanoseconds per record, which
// normalizes out record-count differences between the two runs.
func runDocCells(doc xray.RunDoc) insight.Cells {
	cells := make(insight.Cells)
	for _, r := range doc.Reports {
		for _, fr := range r.Functions {
			if fr.Records == 0 {
				continue
			}
			for _, s := range fr.Segments {
				addSegment(cells, r.Experiment, fr.Label, s.ID, float64(s.Total.Nanoseconds())/float64(fr.Records))
			}
		}
	}
	return cells
}

// benchCells flattens a benchmark report the same way: one "ns/op"
// segment per benchmark, at whole nanoseconds, with the package standing
// in for the experiment.
func benchCells(bd benchDoc) insight.Cells {
	cells := make(insight.Cells)
	for _, b := range bd.Benchmarks {
		pkg := b.Package
		if pkg == "" {
			pkg = "bench"
		}
		addSegment(cells, pkg, b.Name, "ns/op", math.Round(b.NsPerOp))
	}
	return cells
}

// addSegment files one segment value under its "experiment/label/segment"
// path, the name only-old/only-new lines print. Its verdict row names the
// cell "experiment/label", with a cluster label's swept cell set off in
// brackets, and the metric "segment <id> ns/record".
func addSegment(cells insight.Cells, exp, label, seg string, v float64) {
	cell := exp + "/" + label
	if bare, tag, ok := xray.SplitClusterLabel(label); ok {
		cell = exp + "/" + bare
		if tag != "" {
			cell += " [" + tag + "]"
		}
	}
	cells[exp+"/"+label+"/"+seg] = insight.CellValue{Cell: cell, Metric: "segment " + seg + " ns/record", Value: v}
}

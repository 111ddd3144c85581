package xray

import (
	"sort"

	"toss/internal/simtime"
)

// SegmentStat is one segment's aggregate across a set of budgets.
type SegmentStat struct {
	ID string `json:"id"`
	// Total is the summed attributed time.
	Total simtime.Duration `json:"total_ns"`
	// Count is the number of budgets containing the segment.
	Count int64 `json:"count"`
}

// MarkStat is one mark's aggregate.
type MarkStat struct {
	ID string `json:"id"`
	N  int64  `json:"n"`
}

// FunctionReport is the per-label (per-function) budget table.
type FunctionReport struct {
	Label string `json:"label"`
	// Records is the number of budgets aggregated under this label.
	Records int64 `json:"records"`
	// Total is the summed end-to-end time across those budgets.
	Total simtime.Duration `json:"total_ns"`
	// Segments are sorted by id; Marks likewise (nil when there are none,
	// and then left out of the dump).
	Segments []SegmentStat `json:"segments"`
	Marks    []MarkStat    `json:"marks,omitempty"`
}

// Report aggregates the budgets of one experiment (or replay).
type Report struct {
	// Experiment names the run the budgets came from.
	Experiment string `json:"experiment"`
	// Records is the total number of budgets.
	Records int64 `json:"records"`
	// Total is the summed end-to-end time.
	Total simtime.Duration `json:"total_ns"`
	// Functions are sorted by label.
	Functions []FunctionReport `json:"functions"`
}

// Aggregate folds a set of budgets into a report. The fold is commutative:
// per-(label, segment) sums with fully sorted output, so the report is
// independent of the order budgets arrived in — the property that keeps
// parallel runs byte-identical to serial ones.
func Aggregate(experiment string, budgets []*Budget) *Report {
	type acc struct {
		records int64
		total   simtime.Duration
		segs    map[string]*SegmentStat
		marks   map[string]int64
	}
	byLabel := make(map[string]*acc)
	rep := &Report{Experiment: experiment}
	for _, b := range budgets {
		if b == nil {
			continue
		}
		a := byLabel[b.Label]
		if a == nil {
			a = &acc{segs: make(map[string]*SegmentStat), marks: make(map[string]int64)}
			byLabel[b.Label] = a
		}
		a.records++
		a.total += b.Recorded()
		rep.Records++
		rep.Total += b.Recorded()
		for _, s := range b.Segments {
			st := a.segs[s.ID]
			if st == nil {
				st = &SegmentStat{ID: s.ID}
				a.segs[s.ID] = st
			}
			st.Total += s.Dur
			st.Count++
		}
		for _, m := range b.Marks {
			a.marks[m.ID] += m.N
		}
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	// Non-nil even when empty, so a dump spells an empty list [].
	rep.Functions = make([]FunctionReport, 0, len(labels))
	for _, l := range labels {
		a := byLabel[l]
		fr := FunctionReport{Label: l, Records: a.records, Total: a.total,
			Segments: make([]SegmentStat, 0, len(a.segs))}
		for _, st := range a.segs {
			fr.Segments = append(fr.Segments, *st)
		}
		sort.Slice(fr.Segments, func(i, j int) bool { return fr.Segments[i].ID < fr.Segments[j].ID })
		for id, n := range a.marks {
			fr.Marks = append(fr.Marks, MarkStat{ID: id, N: n})
		}
		sort.Slice(fr.Marks, func(i, j int) bool { return fr.Marks[i].ID < fr.Marks[j].ID })
		rep.Functions = append(rep.Functions, fr)
	}
	return rep
}

// HotSpot is one (function, segment) cell of the top-K expensive-segment
// report.
type HotSpot struct {
	Label   string
	Segment string
	Total   simtime.Duration
	// Share is Total over the report's summed end-to-end time.
	Share float64
}

// TopSegments returns the k most expensive (function, segment) cells,
// ordered by decreasing total (ties by label, then segment id) — a
// deterministic order regardless of how the report was aggregated.
func (r *Report) TopSegments(k int) []HotSpot {
	var out []HotSpot
	for _, fr := range r.Functions {
		for _, s := range fr.Segments {
			share := 0.0
			if r.Total > 0 {
				share = float64(s.Total) / float64(r.Total)
			}
			out = append(out, HotSpot{Label: fr.Label, Segment: s.ID, Total: s.Total, Share: share})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Segment < out[j].Segment
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

package telemetry

import (
	"fmt"
	"io"
	"strings"

	"toss/internal/emit"
	"toss/internal/simtime"
	"toss/internal/stats"
)

// All exporters are hand-serialized with fixed field order and fixed number
// formatting: given the same spans they produce the same bytes, which is the
// property the acceptance tests assert. Strings are escaped by
// emit.JSONString; encoding/json only parses the output in tests.

// attrsJSON renders an ordered attribute list as a JSON object.
func attrsJSON(attrs []Attr) string {
	if len(attrs) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(emit.JSONString(a.Key))
		b.WriteByte(':')
		b.WriteString(emit.JSONString(a.Val))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteJSONLines writes one JSON object per span, in creation order: the
// grep/jq-friendly export.
func WriteJSONLines(w io.Writer, spans []*Span) error {
	for _, s := range spans {
		line := fmt.Sprintf(
			`{"id":%d,"parent":%d,"track":%d,"kind":%s,"name":%s,"start_ns":%d,"end_ns":%d,"attrs":%s}`,
			s.ID, s.Parent, s.Track, emit.JSONString(s.Kind.String()), emit.JSONString(s.Name),
			s.Start.Nanoseconds(), s.End.Nanoseconds(), attrsJSON(s.Attrs))
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceEvents writes events, each one Chrome trace_event JSON object,
// inside the trace_event envelope chrome://tracing and Perfetto load: one
// event per line, in the given order. Every Chrome trace export writes
// through it.
func WriteTraceEvents(w io.Writer, events []string) error {
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	for i, e := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
		b.WriteString(e)
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteChromeTrace writes the spans in Chrome trace_event JSON. Each
// invocation track becomes one "thread": tid = track+1, named after its root
// span via metadata events; spans are "X" (complete) events with microsecond
// timestamps on the track's virtual timeline.
func WriteChromeTrace(w io.Writer, spans []*Span) error {
	var events []string
	// Thread-name metadata: one per track, from the root span.
	for _, s := range spans {
		if s.Parent != -1 {
			continue
		}
		label := fmt.Sprintf("%s #%d", s.Name, s.Track)
		events = append(events, fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			s.Track+1, emit.JSONString(label)))
	}
	for _, s := range spans {
		events = append(events, fmt.Sprintf(
			`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":%s}`,
			emit.JSONString(s.Name), emit.JSONString(s.Kind.String()),
			emit.Micros(s.Start), emit.Micros(s.Duration()), s.Track+1,
			attrsJSON(s.Attrs)))
	}
	return WriteTraceEvents(w, events)
}

// FlameSummary renders one track's span tree as an indented ASCII flame
// view: every span with its duration, its share of the root, and a bar.
// Returns "" when the track has no root span.
func FlameSummary(spans []*Span, track int64) string {
	var root *Span
	children := make(map[int64][]*Span)
	for _, s := range spans {
		if s.Track != track {
			continue
		}
		if s.Parent == -1 {
			root = s
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	if root == nil {
		return ""
	}
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		share := 1.0
		if total := root.Duration(); total > 0 {
			share = float64(s.Duration()) / float64(total)
		}
		bar := strings.Repeat("█", int(share*24+0.5))
		label := fmt.Sprintf("%s%s [%s]", strings.Repeat("  ", depth), s.Name, s.Kind)
		fmt.Fprintf(&b, "%-46s %12s %6.1f%% %s\n", label, s.Duration(), share*100, bar)
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// TraceStats summarizes root-span (whole-invocation) durations across a
// trace using the internal/stats helpers.
type TraceSummary struct {
	Invocations int
	Mean        simtime.Duration
	P50         simtime.Duration
	P99         simtime.Duration
	Max         simtime.Duration
}

// Summarize computes the TraceSummary for all root spans.
func Summarize(spans []*Span) TraceSummary {
	var xs []float64
	for _, s := range spans {
		if s.Parent == -1 {
			xs = append(xs, float64(s.Duration()))
		}
	}
	out := TraceSummary{Invocations: len(xs)}
	if len(xs) == 0 {
		return out
	}
	out.Mean = simtime.Duration(stats.Mean(xs))
	if p, err := stats.Percentile(xs, 50); err == nil {
		out.P50 = simtime.Duration(p)
	}
	if p, err := stats.Percentile(xs, 99); err == nil {
		out.P99 = simtime.Duration(p)
	}
	out.Max = simtime.Duration(stats.Max(xs))
	return out
}

// String renders the summary as one line.
func (t TraceSummary) String() string {
	return fmt.Sprintf("invocations=%d mean=%s p50=%s p99=%s max=%s",
		t.Invocations, t.Mean, t.P50, t.P99, t.Max)
}

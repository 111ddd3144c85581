package fleetobs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"toss/internal/emit"
	"toss/internal/telemetry"
)

// All exporters are hand-serialized with fixed field order and fixed number
// formatting, the same discipline as internal/telemetry: identical inputs
// produce identical bytes, which is what the serial-vs-parallel cmp steps
// in CI assert. Strings are escaped by emit.JSONString.

// appendEventLine appends one decision-log JSON line for e. cell, when
// non-empty, is emitted as the leading field so folded multi-cell logs
// stay self-describing and sortable.
func appendEventLine(b *strings.Builder, cell string, e Event) {
	b.WriteByte('{')
	if cell != "" {
		b.WriteString(`"cell":` + emit.JSONString(cell) + `,`)
	}
	switch {
	case e.Route != nil:
		d := e.Route
		fmt.Fprintf(b, `"at_ns":%d,"kind":"route","fn":%s,"node":%s,"reason":%s,"hit":%t,"router_queue_ns":%d,"decide_ns":%d,"candidates":[`,
			d.At.Nanoseconds(), emit.JSONString(d.Function), emit.JSONString(d.Node), emit.JSONString(d.Reason),
			d.Hit, d.RouterQueue.Nanoseconds(), d.Decide.Nanoseconds())
		for i, c := range d.Candidates {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, `{"node":%s,"inflight":%d,"hit":%t}`, emit.JSONString(c.Node), c.Inflight, c.Hit)
		}
		b.WriteString("]}")
	case e.Scale != nil:
		s := e.Scale
		fmt.Fprintf(b, `"at_ns":%d,"kind":"scale","action":%s,"node":%s,"util":%s,"burn":%s,"fleet":%d}`,
			s.At.Nanoseconds(), emit.JSONString(s.Action), emit.JSONString(s.Node),
			strconv.FormatFloat(s.Util, 'f', 6, 64), strconv.FormatFloat(s.Burn, 'f', 6, 64), s.Fleet)
	default:
		b.WriteByte('}')
	}
	b.WriteByte('\n')
}

// DecisionLog renders the recorder's decision trace as JSON lines, one
// object per routing decision or autoscaler action, in simulation order.
// cell, when non-empty, leads every line, so the logs of many cells
// concatenate into one self-describing document. Nil recorders render "".
func (r *Recorder) DecisionLog(cell string) string {
	var b strings.Builder
	for _, e := range r.Events() {
		appendEventLine(&b, cell, e)
	}
	return b.String()
}

// WriteDecisionLog writes the recorder's untagged decision log.
func (r *Recorder) WriteDecisionLog(w io.Writer) error {
	_, err := io.WriteString(w, r.DecisionLog(""))
	return err
}

// WriteChromeTrace writes the decision trace plus the node grid in Chrome
// trace_event JSON: one thread per node in id order carrying its routing
// decisions as instant events, an "autoscaler" thread carrying scale
// actions, and per-node load counters (running + queued) from the grid
// samples.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return telemetry.WriteTraceEvents(w, nil)
	}
	r.mu.Lock()
	ids := r.nodeIDsLocked()
	r.mu.Unlock()
	tid := make(map[string]int, len(ids))
	for i, id := range ids {
		tid[id] = i + 1 // tid 0 is the autoscaler track
	}

	events := []string{
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"fleet"}}`,
		`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"autoscaler"}}`,
	}
	for _, id := range ids {
		events = append(events, fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			tid[id], emit.JSONString(id)))
	}
	for _, e := range r.Events() {
		switch {
		case e.Route != nil:
			d := e.Route
			events = append(events, fmt.Sprintf(
				`{"name":%s,"cat":"route","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":{"reason":%s,"hit":%t}}`,
				emit.JSONString(d.Function), emit.Micros(d.At), tid[d.Node], emit.JSONString(d.Reason), d.Hit))
		case e.Scale != nil:
			s := e.Scale
			events = append(events, fmt.Sprintf(
				`{"name":%s,"cat":"scale","ph":"i","s":"p","ts":%s,"pid":1,"tid":0,"args":{"node":%s,"util":%s,"burn":%s,"fleet":%d}}`,
				emit.JSONString("scale-"+s.Action), emit.Micros(s.At), emit.JSONString(s.Node),
				strconv.FormatFloat(s.Util, 'f', 6, 64), strconv.FormatFloat(s.Burn, 'f', 6, 64),
				s.Fleet))
		}
	}
	for _, s := range r.Samples() {
		events = append(events, fmt.Sprintf(
			`{"name":%s,"ph":"C","ts":%s,"pid":1,"tid":0,"args":{"running":%d,"queued":%d}}`,
			emit.JSONString(s.Node+" load"), emit.Micros(s.At), s.Running, s.Queued))
	}
	return telemetry.WriteTraceEvents(w, events)
}

package fleetobs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"toss/internal/cluster"
	"toss/internal/emit"
	"toss/internal/telemetry"
)

// All exporters are hand-serialized with fixed field order and fixed number
// formatting, the same discipline as internal/telemetry: identical inputs
// produce identical bytes, which is what the serial-vs-parallel cmp steps
// in CI assert. Strings are escaped by emit.JSONString.

// DecisionLog renders a traced run's routing decisions and autoscaler
// actions as JSON lines, one object per event, in simulation order. cell,
// when non-empty, leads every line, so the logs of many cells concatenate
// into one self-describing document and sort by cell. The front-end router
// is instantaneous, so every route line's router_queue_ns and decide_ns
// are 0. A run without a trace renders "".
func DecisionLog(rep *cluster.Report, cell string) string {
	if rep == nil || rep.Trace == nil {
		return ""
	}
	var b strings.Builder
	lead := func() {
		b.WriteByte('{')
		if cell != "" {
			b.WriteString(`"cell":` + emit.JSONString(cell) + `,`)
		}
	}
	walk(rep, func(d *cluster.Decision) {
		lead()
		fmt.Fprintf(&b, `"at_ns":%d,"kind":"route","fn":%s,"node":%s,"reason":%s,"hit":%t,"router_queue_ns":0,"decide_ns":0,"candidates":[`,
			d.At.Nanoseconds(), emit.JSONString(d.Function), emit.JSONString(d.Node), emit.JSONString(d.Reason), d.Hit)
		for i, c := range d.Candidates {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"node":%s,"inflight":%d,"hit":%t}`, emit.JSONString(c.Node), c.Inflight, c.Hit)
		}
		b.WriteString("]}\n")
	}, func(s *cluster.ScaleEvent) {
		lead()
		fmt.Fprintf(&b, `"at_ns":%d,"kind":"scale","action":%s,"node":%s,"util":%s,"burn":%s,"fleet":%d}`+"\n",
			s.At.Nanoseconds(), emit.JSONString(s.Action), emit.JSONString(s.Node),
			strconv.FormatFloat(s.Util, 'f', 6, 64), strconv.FormatFloat(s.Burn, 'f', 6, 64), s.Fleet)
	})
	return b.String()
}

// WriteDecisionLog writes the run's untagged decision log.
func WriteDecisionLog(w io.Writer, rep *cluster.Report) error {
	_, err := io.WriteString(w, DecisionLog(rep, ""))
	return err
}

// WriteChromeTrace writes a traced run's decisions and node grid in Chrome
// trace_event JSON: one thread per node in id order carrying its routing
// decisions as instant events, an "autoscaler" thread carrying scale
// actions, and per-node load counters (running + queued) from the grid
// samples. A run without a trace writes an empty trace.
func WriteChromeTrace(w io.Writer, rep *cluster.Report) error {
	if rep == nil || rep.Trace == nil {
		return telemetry.WriteTraceEvents(w, nil)
	}
	ids := nodeIDs(rep.Trace)
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
	walk(rep, func(d *cluster.Decision) {
		events = append(events, fmt.Sprintf(
			`{"name":%s,"cat":"route","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":{"reason":%s,"hit":%t}}`,
			emit.JSONString(d.Function), emit.Micros(d.At), tid[d.Node], emit.JSONString(d.Reason), d.Hit))
	}, func(s *cluster.ScaleEvent) {
		events = append(events, fmt.Sprintf(
			`{"name":%s,"cat":"scale","ph":"i","s":"p","ts":%s,"pid":1,"tid":0,"args":{"node":%s,"util":%s,"burn":%s,"fleet":%d}}`,
			emit.JSONString("scale-"+s.Action), emit.Micros(s.At), emit.JSONString(s.Node),
			strconv.FormatFloat(s.Util, 'f', 6, 64), strconv.FormatFloat(s.Burn, 'f', 6, 64),
			s.Fleet))
	})
	for _, s := range rep.Trace.Samples {
		events = append(events, fmt.Sprintf(
			`{"name":%s,"ph":"C","ts":%s,"pid":1,"tid":0,"args":{"running":%d,"queued":%d}}`,
			emit.JSONString(s.Node+" load"), emit.Micros(s.At), s.Running, s.Queued))
	}
	return telemetry.WriteTraceEvents(w, events)
}

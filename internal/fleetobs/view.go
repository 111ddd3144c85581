package fleetobs

import (
	"fmt"
	"html"
	"io"
	"strconv"
	"strings"

	"toss/internal/cluster"
	"toss/internal/emit"
	"toss/internal/simtime"
)

// nodeView is one node's row in the fleet view: lifetime aggregates plus
// the last grid sample.
type nodeView struct {
	// NodeRouterStats names the node and holds the router's counters for
	// it (cluster.RouterStats.PerNode), zero for a node no decision chose.
	cluster.NodeRouterStats
	// Alive / Draining are the node's state at the last sampled boundary.
	Alive    bool
	Draining bool
	// Cores / Running / Queued and the occupancy fields mirror the last
	// grid sample.
	Cores    int
	Running  int
	Queued   int
	DiskUsed int64
	DiskCap  int64
	FastUsed int64
	FastCap  int64
	SlowUsed int64
	SlowCap  int64
	// Invocations / ColdStarts and the latency percentiles aggregate every
	// invocation dispatched to the node.
	Invocations int64
	ColdStarts  int64
	P50         simtime.Duration
	P99         simtime.Duration
	// UtilHeat / QueueHeat are the node's heatmap rows: core utilization in
	// [0,1] and queue depth at each sampled boundary, oldest first.
	UtilHeat  []float64
	QueueHeat []int
}

// meanUtil is the mean sampled core utilization over the run.
func (n nodeView) meanUtil() float64 {
	if len(n.UtilHeat) == 0 {
		return 0
	}
	var s float64
	for _, u := range n.UtilHeat {
		s += u
	}
	return s / float64(len(n.UtilHeat))
}

// fleetView is a traced run's node grid plus trace totals, the one input
// of the three fleet-view renderers.
type fleetView struct {
	// Now is the latest virtual time the view covers (last boundary or
	// event, whichever is later).
	Now simtime.Duration
	// Decisions / Scales count trace events by kind.
	Decisions int64
	Scales    int64
	// Nodes holds one row per node the trace names, in id order.
	Nodes []nodeView
	// ScaleEvents lists every autoscaler action in order.
	ScaleEvents []cluster.ScaleEvent
}

// view builds the fleet view of a finished run; nil when the run has no
// trace.
func view(rep *cluster.Report) *fleetView {
	if rep == nil || rep.Trace == nil {
		return nil
	}
	tr := rep.Trace
	v := &fleetView{Decisions: int64(len(tr.Decisions)), Scales: int64(len(rep.ScaleEvents)), ScaleEvents: rep.ScaleEvents}
	rows := map[string]*nodeView{}
	for _, id := range nodeIDs(tr) {
		v.Nodes = append(v.Nodes, nodeView{NodeRouterStats: cluster.NodeRouterStats{Node: id}})
	}
	for i := range v.Nodes {
		rows[v.Nodes[i].Node] = &v.Nodes[i]
	}
	for i, ns := range rep.Nodes {
		if n := rows[ns.ID]; n != nil {
			n.Invocations, n.ColdStarts = ns.Invocations, ns.ColdStarts
			n.P50, n.P99 = percentile(tr.Latencies[i], 50), percentile(tr.Latencies[i], 99)
		}
	}
	for _, pn := range rep.Router.PerNode {
		if n := rows[pn.Node]; n != nil {
			n.NodeRouterStats = pn
		}
	}
	if k := len(tr.Decisions); k > 0 {
		v.Now = tr.Decisions[k-1].At // decisions are in time order
	}
	for _, s := range rep.ScaleEvents {
		v.Now = max(v.Now, s.At)
	}
	for _, s := range tr.Samples {
		n := rows[s.Node]
		n.UtilHeat = append(n.UtilHeat, s.Util())
		n.QueueHeat = append(n.QueueHeat, s.Queued)
		n.Alive, n.Draining = s.Alive, s.Draining
		n.Cores, n.Running, n.Queued = s.Cores, s.Running, s.Queued
		n.DiskUsed, n.DiskCap = s.DiskUsed, s.DiskCap
		n.FastUsed, n.FastCap = s.FastUsed, s.FastCap
		n.SlowUsed, n.SlowCap = s.SlowUsed, s.SlowCap
		v.Now = max(v.Now, s.At)
	}
	return v
}

// heatRunes shade a utilization heat cell from idle to saturated. ASCII
// only: the fleet view renders identically in logs, CI, and golden files.
const heatRunes = " .:-=+*#%@"

// heatCell maps u in [0,1] to one shade character.
func heatCell(u float64) byte {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	i := int(u * float64(len(heatRunes)-1))
	return heatRunes[i]
}

// heatRow renders per-boundary utilizations as a shade string, keeping the
// most recent width cells.
func heatRow(us []float64, width int) string {
	if len(us) > width {
		us = us[len(us)-width:]
	}
	b := make([]byte, len(us))
	for i, u := range us {
		b[i] = heatCell(u)
	}
	return string(b)
}

// queueRow renders per-boundary queue depths: digits 0-9, '>' past 9.
func queueRow(qs []int, width int) string {
	if len(qs) > width {
		qs = qs[len(qs)-width:]
	}
	b := make([]byte, len(qs))
	for i, q := range qs {
		switch {
		case q < 0:
			b[i] = '0'
		case q > 9:
			b[i] = '>'
		default:
			b[i] = byte('0' + q)
		}
	}
	return string(b)
}

// bytesShort renders byte counts compactly and deterministically (binary
// units, one decimal).
func bytesShort(n int64) string {
	switch {
	case n >= 1<<30:
		return strconv.FormatFloat(float64(n)/float64(1<<30), 'f', 1, 64) + "G"
	case n >= 1<<20:
		return strconv.FormatFloat(float64(n)/float64(1<<20), 'f', 1, 64) + "M"
	case n >= 1<<10:
		return strconv.FormatFloat(float64(n)/float64(1<<10), 'f', 1, 64) + "K"
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}

// ms renders a duration as milliseconds with one decimal.
func ms(d simtime.Duration) string {
	return strconv.FormatFloat(d.Milliseconds(), 'f', 1, 64) + "ms"
}

// nodeState names the node's lifecycle state for rendering.
func nodeState(n nodeView) string {
	switch {
	case !n.Alive:
		return "gone"
	case n.Draining:
		return "drain"
	default:
		return "live"
	}
}

// RenderFleet renders a traced run as the -fleetview ASCII grid: one row
// per node with a utilization heat strip (one cell per sampling boundary), a
// queue-depth strip, snapshot-tier occupancy, and per-node percentiles,
// followed by the autoscaler's actions. Byte-deterministic for a given
// run; width bounds the heat strips (0 means the default 32).
func RenderFleet(rep *cluster.Report, width int) string {
	v := view(rep)
	if width <= 0 {
		width = 32
	}
	var b strings.Builder
	if v == nil || len(v.Nodes) == 0 {
		b.WriteString("fleet: no nodes observed\n")
		return b.String()
	}
	fmt.Fprintf(&b, "fleet @ %v: %d nodes, %d decisions, %d scale events (heat cell = %v)\n",
		v.Now, len(v.Nodes), v.Decisions, v.Scales, cluster.SampleInterval)
	fmt.Fprintf(&b, "%-5s %-5s %5s  %-*s  %-*s %5s %9s %9s %7s %5s %11s %11s %11s\n",
		"node", "state", "util", width, "heat(util)", width, "queue", "inv", "p50", "p99",
		"cold%", "dec", "disk", "fast", "slow")
	for _, n := range v.Nodes {
		coldPct := 0.0
		if n.Invocations > 0 {
			coldPct = 100 * float64(n.ColdStarts) / float64(n.Invocations)
		}
		fmt.Fprintf(&b, "%-5s %-5s %4.0f%%  %-*s  %-*s %5d %9s %9s %6.1f%% %5d %11s %11s %11s\n",
			n.Node, nodeState(n), 100*n.meanUtil(),
			width, heatRow(n.UtilHeat, width),
			width, queueRow(n.QueueHeat, width),
			n.Invocations, ms(n.P50), ms(n.P99), coldPct, n.Decisions,
			bytesShort(n.DiskUsed)+"/"+bytesShort(n.DiskCap),
			bytesShort(n.FastUsed)+"/"+bytesShort(n.FastCap),
			bytesShort(n.SlowUsed)+"/"+bytesShort(n.SlowCap))
	}
	fmt.Fprintf(&b, "router: %d spills, %d sheds across the fleet\n", rep.Router.Spills, rep.Router.Sheds)
	for _, s := range v.ScaleEvents {
		fmt.Fprintf(&b, "scale %-4s %s @ %v (util %.2f, burn %.2f, fleet %d)\n",
			s.Action, s.Node, s.At, s.Util, s.Burn, s.Fleet)
	}
	return b.String()
}

// WriteFleetJSON writes a traced run's fleet view as the /fleet.json
// document: hand-serialized, fixed field order, byte-deterministic.
func WriteFleetJSON(w io.Writer, rep *cluster.Report) error {
	v := view(rep)
	var b strings.Builder
	if v == nil {
		b.WriteString("{\"schema_version\":1,\"nodes\":[]}\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	fmt.Fprintf(&b, "{\"schema_version\":1,\"now_ns\":%d,\"interval_ns\":%d,\"decisions\":%d,\"scales\":%d,\"nodes\":[",
		v.Now.Nanoseconds(), cluster.SampleInterval.Nanoseconds(), v.Decisions, v.Scales)
	for i, n := range v.Nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "{\"node\":%s,\"state\":%s,\"cores\":%d,\"running\":%d,\"queued\":%d,",
			emit.JSONString(n.Node), emit.JSONString(nodeState(n)), n.Cores, n.Running, n.Queued)
		fmt.Fprintf(&b, "\"disk_used\":%d,\"disk_cap\":%d,\"fast_used\":%d,\"fast_cap\":%d,\"slow_used\":%d,\"slow_cap\":%d,",
			n.DiskUsed, n.DiskCap, n.FastUsed, n.FastCap, n.SlowUsed, n.SlowCap)
		fmt.Fprintf(&b, "\"invocations\":%d,\"cold_starts\":%d,\"p50_ns\":%d,\"p99_ns\":%d,",
			n.Invocations, n.ColdStarts, n.P50.Nanoseconds(), n.P99.Nanoseconds())
		fmt.Fprintf(&b, "\"decisions\":%d,\"affinity_hits\":%d,\"spills\":%d,\"sheds\":%d,",
			n.Decisions, n.AffinityHits, n.Spills, n.Sheds)
		b.WriteString("\"util_heat\":[")
		for j, u := range n.UtilHeat {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(u, 'f', 4, 64))
		}
		b.WriteString("],\"queue_heat\":[")
		for j, q := range n.QueueHeat {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(q))
		}
		b.WriteString("]}")
	}
	b.WriteString("],\"scale_events\":[")
	for i, s := range v.ScaleEvents {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "{\"at_ns\":%d,\"action\":%s,\"node\":%s,\"util\":%s,\"burn\":%s,\"fleet\":%d}",
			s.At.Nanoseconds(), emit.JSONString(s.Action), emit.JSONString(s.Node),
			strconv.FormatFloat(s.Util, 'f', 6, 64), strconv.FormatFloat(s.Burn, 'f', 6, 64), s.Fleet)
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFleetHTML renders a traced run's fleet view as the /fleet dashboard
// page: a self-contained dark HTML node grid (no external assets, no
// scripts) with utilization bars, heat strips, occupancy, and the
// scale-event list.
func WriteFleetHTML(w io.Writer, rep *cluster.Report) error {
	v := view(rep)
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>toss fleet</title>
<style>
body { font-family: monospace; background: #111; color: #ddd; margin: 2em; }
h1 { color: #8cf; font-size: 1.1em; }
table { border-collapse: collapse; }
td, th { padding: 1px 6px; border: 1px solid #333; text-align: right; }
th { color: #8cf; }
td.id, td.heat { text-align: left; }
td.bar { width: 120px; text-align: left; }
td.bar div { background: #2a6; height: 12px; }
td.heat { letter-spacing: 1px; color: #fa4; }
.scales { color: #999; }
</style></head><body>
`)
	if v == nil || len(v.Nodes) == 0 {
		b.WriteString("<h1>toss fleet — no fleet attached</h1>\n</body></html>\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	fmt.Fprintf(&b, "<h1>toss fleet — %d nodes @ %v, %d decisions, %d scale events</h1>\n<table>\n",
		len(v.Nodes), v.Now, v.Decisions, v.Scales)
	b.WriteString("<tr><th>node</th><th>state</th><th>util</th><th></th><th>heat</th><th>queue</th><th>inv</th><th>cold</th><th>p50</th><th>p99</th><th>dec</th><th>hits</th><th>spill</th><th>shed</th><th>disk</th><th>fast</th><th>slow</th></tr>\n")
	for _, n := range v.Nodes {
		u := n.meanUtil()
		fmt.Fprintf(&b, `<tr><td class="id">%s</td><td>%s</td><td>%.0f%%</td><td class="bar"><div style="width:%.1f%%"></div></td>`,
			html.EscapeString(n.Node), nodeState(n), 100*u, 100*u)
		fmt.Fprintf(&b, `<td class="heat">%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td>`,
			html.EscapeString(heatRow(n.UtilHeat, 48)), n.Queued, n.Invocations, n.ColdStarts, ms(n.P50), ms(n.P99))
		fmt.Fprintf(&b, `<td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>`+"\n",
			n.Decisions, n.AffinityHits, n.Spills, n.Sheds,
			bytesShort(n.DiskUsed)+"/"+bytesShort(n.DiskCap),
			bytesShort(n.FastUsed)+"/"+bytesShort(n.FastCap),
			bytesShort(n.SlowUsed)+"/"+bytesShort(n.SlowCap))
	}
	b.WriteString("</table>\n")
	if len(v.ScaleEvents) > 0 {
		b.WriteString(`<p class="scales">`)
		for i, s := range v.ScaleEvents {
			if i > 0 {
				b.WriteString(" · ")
			}
			fmt.Fprintf(&b, "%s %s @ %v (util %.2f, burn %.2f, fleet %d)",
				s.Action, html.EscapeString(s.Node), s.At, s.Util, s.Burn, s.Fleet)
		}
		b.WriteString("</p>\n")
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

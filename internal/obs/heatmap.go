package obs

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"toss/internal/simtime"
)

// shades maps a fast-tier share in [0,1] to an ASCII density: ' ' (all
// slow) through '█' (all fast).
var shades = []rune{' ', '░', '▒', '▓', '█'}

func shadeFor(fastShare float64) rune {
	if fastShare < 0 {
		fastShare = 0
	}
	if fastShare > 1 {
		fastShare = 1
	}
	return shades[int(fastShare*4.999)]
}

// RenderHeatmap draws one row per function, one column per time bucket over
// [0, snap.Now], shaded by the fast-tier share of the placement in force
// during the bucket. '·' marks buckets before the function's first event.
func RenderHeatmap(snap Snapshot, width int) string {
	if width < 8 {
		width = 8
	}
	if len(snap.Timelines) == 0 {
		return "(no timelines recorded)\n"
	}
	nameW := 0
	for _, tl := range snap.Timelines {
		if len(tl.Function) > nameW {
			nameW = len(tl.Function)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  fast-tier share over virtual time [0, %v]; █=fast ░=slow ·=no data\n",
		nameW, "", snap.Now)
	for _, tl := range snap.Timelines {
		fmt.Fprintf(&b, "%-*s  ", nameW, tl.Function)
		for col := 0; col < width; col++ {
			at := bucketTime(snap.Now, col, width)
			ev := eventAt(tl.Events, at)
			if ev == nil {
				b.WriteRune('·')
				continue
			}
			b.WriteRune(shadeFor(ev.FastShare()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// bucketTime maps a column to the virtual time at that bucket's end.
func bucketTime(now simtime.Duration, col, width int) simtime.Duration {
	return now * simtime.Duration(col+1) / simtime.Duration(width)
}

// eventAt returns the last event at or before t (nil if none).
func eventAt(events []TierEvent, t simtime.Duration) *TierEvent {
	i := sort.Search(len(events), func(i int) bool { return events[i].At > t })
	if i == 0 {
		return nil
	}
	return &events[i-1]
}

// WriteHeatmapHTML renders the snapshot as a self-contained HTML page (no
// external assets, no scripts): the residency heatmap as colored cells, the
// per-function fault/restore tallies, and the DAMON audit table.
func WriteHeatmapHTML(w io.Writer, snap Snapshot) error {
	const width = 96
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>toss flight recorder</title>
<style>
body { font-family: monospace; background: #111; color: #ddd; margin: 2em; }
h1, h2 { color: #8cf; font-size: 1.1em; }
table { border-collapse: collapse; }
td, th { padding: 1px 6px; border: 1px solid #333; text-align: right; }
th { color: #8cf; }
td.fn { text-align: left; }
.strip td { padding: 0; border: 0; width: 6px; height: 14px; }
.legend span { display: inline-block; width: 1.2em; text-align: center; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>toss flight recorder — virtual time %v</h1>\n", snap.Now)

	b.WriteString("<h2>tier residency (fast-tier share over virtual time)</h2>\n")
	b.WriteString(`<p class="legend">`)
	for i := 0; i <= 4; i++ {
		fmt.Fprintf(&b, `<span style="background:%s">&nbsp;</span>%d%% `, shareColor(float64(i)/4), i*25)
	}
	b.WriteString("</p>\n<table class=\"strip\">\n")
	for _, tl := range snap.Timelines {
		fmt.Fprintf(&b, `<tr><td class="fn" style="padding-right:8px">%s</td>`, html.EscapeString(tl.Function))
		for col := 0; col < width; col++ {
			at := bucketTime(snap.Now, col, width)
			ev := eventAt(tl.Events, at)
			color := "#222"
			if ev != nil {
				color = shareColor(ev.FastShare())
			}
			fmt.Fprintf(&b, `<td style="background:%s"></td>`, color)
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>per-function tallies</h2>\n<table>\n")
	b.WriteString("<tr><th>function</th><th>restores</th><th>fast faults</th><th>slow faults</th><th>fast stall</th><th>slow stall</th><th>events</th></tr>\n")
	for _, tl := range snap.Timelines {
		fmt.Fprintf(&b, "<tr><td class=\"fn\">%s</td><td>%d</td><td>%d</td><td>%d</td><td>%v</td><td>%v</td><td>%d</td></tr>\n",
			html.EscapeString(tl.Function), tl.Restores, tl.Faults[0], tl.Faults[1],
			tl.FaultCost[0], tl.FaultCost[1], len(tl.Events))
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>DAMON accuracy audits</h2>\n")
	if len(snap.Audits) == 0 {
		b.WriteString("<p>(no audits recorded)</p>\n")
	} else {
		b.WriteString("<table>\n<tr><th>function</th><th>seq</th><th>pages</th><th>rank corr</th><th>hot→cold</th><th>cold→hot</th></tr>\n")
		for _, a := range snap.Audits {
			fmt.Fprintf(&b, "<tr><td class=\"fn\">%s</td><td>%d</td><td>%d</td><td>%.3f</td><td>%d/%d</td><td>%d/%d</td></tr>\n",
				html.EscapeString(a.Function), a.Seq, a.Pages, a.RankCorrelation,
				a.HotAsCold, a.HotPages, a.ColdAsHot, a.ColdPages)
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// shareColor maps a fast-tier share to a slow-red → fast-green ramp.
func shareColor(fastShare float64) string {
	if fastShare < 0 {
		fastShare = 0
	}
	if fastShare > 1 {
		fastShare = 1
	}
	r := int(200 * (1 - fastShare))
	g := int(180 * fastShare)
	return fmt.Sprintf("#%02x%02x40", 40+r, 40+g)
}

package xray

import (
	"fmt"
	"html"
	"io"
	"strings"

	"toss/internal/simtime"
)

// Waterfall renders one budget as an ASCII attribution waterfall: segments in
// causal order, each with a bar scaled to its share of the recorded total.
func Waterfall(b *Budget, width int) string {
	if b == nil || len(b.Segments) == 0 {
		return ""
	}
	if width < 8 {
		width = 8
	}
	total := b.Recorded()
	if total <= 0 {
		total = b.Sum()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  total %v\n", b.Label, total)
	for _, s := range b.Segments {
		sb.WriteString(waterfallRow(s.ID, s.Dur, total, width))
	}
	for _, m := range b.Marks {
		fmt.Fprintf(&sb, "  %-22s %d\n", "#"+m.ID, m.N)
	}
	return sb.String()
}

// ReportWaterfall renders a per-function aggregate as a waterfall of mean
// per-record segment times, segments ordered by decreasing share.
func ReportWaterfall(fr *FunctionReport, width int) string {
	if fr == nil || fr.Records == 0 || len(fr.Segments) == 0 {
		return ""
	}
	if width < 8 {
		width = 8
	}
	meanTotal := simtime.Duration(int64(fr.Total) / fr.Records)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  %d records, mean total %v\n", fr.Label, fr.Records, meanTotal)
	segs := append([]SegmentStat(nil), fr.Segments...)
	// Largest mean first; ties by id for determinism.
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			if segs[j].Total > segs[i].Total ||
				(segs[j].Total == segs[i].Total && segs[j].ID < segs[i].ID) {
				segs[i], segs[j] = segs[j], segs[i]
			}
		}
	}
	for _, s := range segs {
		mean := simtime.Duration(int64(s.Total) / fr.Records)
		sb.WriteString(waterfallRow(s.ID, mean, meanTotal, width))
	}
	return sb.String()
}

// waterfallRow renders one "  id  bar  dur (share%)" line.
func waterfallRow(id string, d, total simtime.Duration, width int) string {
	share := 0.0
	if total > 0 {
		share = float64(d) / float64(total)
	}
	n := int(share*float64(width) + 0.5)
	if n > width {
		n = width
	}
	bar := strings.Repeat("#", n) + strings.Repeat(".", width-n)
	return fmt.Sprintf("  %-22s %s %12v %5.1f%%\n", id, bar, d, share*100)
}

// WriteWaterfallHTML renders an attribution report as a self-contained HTML
// budget panel (no external assets, no scripts): one waterfall table per
// function with mean-per-record segment bars, plus the marks underneath.
func WriteWaterfallHTML(w io.Writer, rep *Report) error {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>toss xray</title>
<style>
body { font-family: monospace; background: #111; color: #ddd; margin: 2em; }
h1, h2 { color: #8cf; font-size: 1.1em; }
table { border-collapse: collapse; margin-bottom: 1em; }
td, th { padding: 1px 6px; border: 1px solid #333; text-align: right; }
th { color: #8cf; }
td.seg { text-align: left; }
td.bar { width: 260px; text-align: left; border: 1px solid #333; }
td.bar div { background: #2a6; height: 12px; }
.marks { color: #999; }
</style></head><body>
`)
	if rep == nil || rep.Records == 0 {
		b.WriteString("<h1>toss xray — no budgets collected</h1>\n</body></html>\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	fmt.Fprintf(&b, "<h1>toss xray — %d budgets, %v attributed</h1>\n", rep.Records, rep.Total)
	for i := range rep.Functions {
		fr := &rep.Functions[i]
		meanTotal := simtime.Duration(int64(fr.Total) / fr.Records)
		fmt.Fprintf(&b, "<h2>%s — %d records, mean total %v</h2>\n<table>\n",
			html.EscapeString(fr.Label), fr.Records, meanTotal)
		b.WriteString("<tr><th>segment</th><th></th><th>mean</th><th>share</th><th>count</th></tr>\n")
		for _, s := range fr.Segments {
			mean := simtime.Duration(int64(s.Total) / fr.Records)
			share := 0.0
			if meanTotal > 0 {
				share = float64(mean) / float64(meanTotal)
			}
			fmt.Fprintf(&b,
				`<tr><td class="seg">%s</td><td class="bar"><div style="width:%.1f%%"></div></td><td>%v</td><td>%.1f%%</td><td>%d</td></tr>`+"\n",
				html.EscapeString(s.ID), share*100, mean, share*100, s.Count)
		}
		b.WriteString("</table>\n")
		if len(fr.Marks) > 0 {
			b.WriteString(`<p class="marks">`)
			for j, m := range fr.Marks {
				if j > 0 {
					b.WriteString(" · ")
				}
				fmt.Fprintf(&b, "%s=%d", html.EscapeString(m.ID), m.N)
			}
			b.WriteString("</p>\n")
		}
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

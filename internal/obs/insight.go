package obs

import (
	"fmt"
	"html"
	"io"
	"strings"

	"toss/internal/insight"
)

// SetInsight attaches an alert engine so the dashboard can serve the SLO
// alert panel (/alerts, /alerts.json). Nil recorders and nil engines are
// fine — the panel just reports no engine attached.
func (r *Recorder) SetInsight(e *insight.Engine) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.insight = e
	r.mu.Unlock()
}

// InsightResult snapshots the attached engine as the "live" cell, reporting
// whether an engine is attached at all.
func (r *Recorder) InsightResult() (insight.Result, bool) {
	if r == nil {
		return insight.Result{}, false
	}
	r.mu.Lock()
	e := r.insight
	r.mu.Unlock()
	if e == nil {
		return insight.Result{}, false
	}
	return e.Result("live"), true
}

// WriteAlertsHTML renders the alert panel: the rules still firing, the full
// fire/resolve edge log with blame attributions, and the watched series
// summaries. Self-contained (no scripts), same conventions as the other
// dashboard pages. attached=false renders the empty banner.
func WriteAlertsHTML(w io.Writer, res insight.Result, attached bool) error {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>toss alerts</title><style>
body{background:#111;color:#ddd;font-family:monospace;margin:2em}
h1,h2{color:#fff} table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #444;padding:4px 10px;text-align:left}
.fire{color:#f66}.resolve{color:#6f6}.firing{color:#f66;font-weight:bold}
</style></head><body><h1>SLO alerts</h1>
`)
	switch {
	case !attached:
		b.WriteString("<p>no alert engine attached — run with alerting enabled (faasim -alerts)</p>")
	default:
		if len(res.Firing) > 0 {
			fmt.Fprintf(&b, `<p class="firing">FIRING: %s</p>`, html.EscapeString(strings.Join(res.Firing, ", ")))
		} else {
			b.WriteString("<p>no rules firing</p>")
		}
		fmt.Fprintf(&b, "<p>%d rule evaluations, %d alert edges</p>\n", res.Evals, len(res.Alerts))
		if len(res.Alerts) > 0 {
			b.WriteString("<h2>alert log</h2><table><tr><th>t</th><th>edge</th><th>rule</th><th>value</th><th>blame</th></tr>\n")
			for _, a := range res.Alerts {
				class := "resolve"
				if a.Firing {
					class = "fire"
				}
				fmt.Fprintf(&b, `<tr><td>%s</td><td class=%q>%s</td><td>%s</td><td>%g</td><td>%s</td></tr>`+"\n",
					a.At.Std(), class, a.State(), html.EscapeString(a.Rule), a.Value, html.EscapeString(a.Blame))
			}
			b.WriteString("</table>\n")
		}
		if len(res.Series) > 0 {
			b.WriteString("<h2>series</h2><table><tr><th>series</th><th>points</th><th>min</th><th>mean</th><th>max</th><th>last</th><th>width</th></tr>\n")
			for _, s := range res.Series {
				fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%g</td><td>%g</td><td>%g</td><td>%g</td><td>%s</td></tr>\n",
					html.EscapeString(s.Name), s.Points, s.Min, s.Mean, s.Max, s.Last, s.Width.Std())
			}
			b.WriteString("</table>\n")
		}
	}
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

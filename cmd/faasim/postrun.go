package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"toss/internal/cliutil"
	"toss/internal/fleetobs"
	"toss/internal/insight"
	"toss/internal/obs"
	"toss/internal/xray"
)

// This file is the post-run path both modes share: the attribution
// waterfalls, the alert log and insight dump, the export files, and the
// dashboard -http serves.

// explain prints the per-function attribution waterfalls (-explain) and the
// -explain-top slowest budgets, in the order given among equals.
func explain(w io.Writer, o *options, budgets []*xray.Budget) {
	if o.explain {
		rep := xray.Aggregate("explain", budgets)
		fmt.Fprintf(w, "\nattribution (%d budgets, mean per record):\n", rep.Records)
		for i := range rep.Functions {
			fmt.Fprint(w, xray.ReportWaterfall(&rep.Functions[i], 32))
		}
	}
	if o.explainTop > 0 {
		slowest := append([]*xray.Budget(nil), budgets...)
		sort.SliceStable(slowest, func(i, j int) bool {
			return slowest[i].Recorded() > slowest[j].Recorded()
		})
		if len(slowest) > o.explainTop {
			slowest = slowest[:o.explainTop]
		}
		fmt.Fprintf(w, "\nslowest %d invocations:\n", len(slowest))
		for _, b := range slowest {
			fmt.Fprint(w, xray.Waterfall(b, 32))
		}
	}
}

// writeInsight prints eng's alert log (-alerts) and writes its insight dump
// (-report), both as the one cell named cell.
func writeInsight(w io.Writer, o *options, eng *insight.Engine, cell string) error {
	res := eng.Result(cell)
	if o.alerts {
		fmt.Fprintln(w)
		if err := insight.WriteAlertLog(w, []insight.Result{res}); err != nil {
			return err
		}
	}
	return writeExport(w, o.reportOut, "insight: wrote dump to "+o.reportOut, func(f io.Writer) error {
		return insight.WriteDumpJSON(f, insight.Dump{
			Schema: insight.SchemaVersion,
			Cells:  []insight.Result{res},
		})
	})
}

// writeExport writes the export file at path, unless path is empty, and
// then prints the done line to w.
func writeExport(w io.Writer, path, done string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := cliutil.WriteFile(path, write); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, done)
	return err
}

// dashboard is what -http serves: the finished run's flight recorder and the
// panels computed once from what the run produced. Nothing changes after the
// run, so each page renders the same bytes on every request.
type dashboard struct {
	// title and panels name the dashboard in the serve banner.
	title, panels string
	rec           *obs.Recorder       // nil: no flight recorder (cluster mode)
	xray          *xray.Report        // nil: no attribution collector
	fleet         *fleetobs.FleetView // nil: no fleet recorder
	alerts        *insight.Result     // nil: no alert engine
}

// newDashboard builds the dashboard over a finished run; any of rec, xcol,
// fr and eng may be nil.
func newDashboard(title, panels string, rec *obs.Recorder, xcol *xray.Collector, fr *fleetobs.Recorder, eng *insight.Engine) *dashboard {
	d := &dashboard{title: title, panels: panels, rec: rec, fleet: fr.View()}
	if xcol != nil {
		d.xray = xray.Aggregate("live", xcol.Snapshot())
	}
	if eng != nil {
		res := eng.Result("live")
		d.alerts = &res
	}
	return d
}

// route is one dashboard endpoint: its path, the one-line description the
// index renders, and its handler. Keeping the table authoritative means the
// index can never drift from what is actually registered.
type route struct {
	path    string
	desc    string
	handler http.HandlerFunc
}

// render adapts a page writer into a handler that serves it as contentType.
func render(contentType string, write func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", contentType)
		if err := write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// routes returns the dashboard's endpoint table in index order. The flight
// recorder's three routes are there only when the run has a recorder.
func (d *dashboard) routes() []route {
	const (
		htmlType = "text/html; charset=utf-8"
		jsonType = "application/json"
	)
	var rs []route
	if d.rec != nil {
		rs = []route{
			{"/metrics", "Prometheus text exposition", render("text/plain; version=0.0.4; charset=utf-8", func(w io.Writer) error {
				return obs.WritePrometheus(w, d.rec.Metrics())
			})},
			{"/timeseries.json", "sampled series, residency timelines, DAMON audits", render(jsonType, func(w io.Writer) error {
				return obs.WriteTimeseriesJSON(w, d.rec.Snapshot())
			})},
			{"/heatmap", "tier-residency heatmap", render(htmlType, func(w io.Writer) error {
				return obs.WriteHeatmapHTML(w, d.rec.Snapshot())
			})},
		}
	}
	return append(rs, []route{
		{"/xray", "per-function latency budgets (attribution waterfalls)", render(htmlType, func(w io.Writer) error {
			return xray.WriteWaterfallHTML(w, d.xray)
		})},
		{"/xray.json", "aggregated attribution dump (tossctl report input)", render(jsonType, func(w io.Writer) error {
			doc := xray.RunDoc{Schema: xray.SchemaVersion, Reports: []*xray.Report{}}
			if d.xray != nil {
				doc.Reports = append(doc.Reports, d.xray)
			}
			return xray.WriteJSON(w, doc)
		})},
		{"/fleet", "fleet node grid (utilization heat, queues, tier occupancy, per-node p99)", render(htmlType, func(w io.Writer) error {
			return fleetobs.WriteFleetHTML(w, d.fleet)
		})},
		{"/fleet.json", "fleet view as JSON (decision/scale totals per node)", render(jsonType, func(w io.Writer) error {
			return fleetobs.WriteFleetJSON(w, d.fleet)
		})},
		{"/alerts", "SLO alert panel (firing rules, fire/resolve log, watched series)", render(htmlType, func(w io.Writer) error {
			return insight.WriteAlertsHTML(w, d.alerts)
		})},
		{"/alerts.json", "alert engine snapshot as an insight dump (tossctl report input)", render(jsonType, func(w io.Writer) error {
			dump := insight.Dump{Schema: insight.SchemaVersion, Cells: []insight.Result{}}
			if d.alerts != nil {
				dump.Cells = append(dump.Cells, *d.alerts)
			}
			return insight.WriteDumpJSON(w, dump)
		})},
		{"/healthz", "liveness", render("text/plain; charset=utf-8", func(w io.Writer) error {
			_, err := fmt.Fprintln(w, "ok")
			return err
		})},
		{"/debug/pprof/", "Go runtime profiles", pprof.Index},
	}...)
}

// handler returns the dashboard's mux: an index at / listing every route
// (rendered from the same table the mux is built from, so the two cannot
// disagree), the routes, and the rest of net/http/pprof. Unknown paths
// return 404.
func (d *dashboard) handler() http.Handler {
	routes := d.routes()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>toss</title></head><body>
<h1>toss flight recorder</h1><ul>
`)
		for _, rt := range routes {
			fmt.Fprintf(w, `<li><a href="%s">%s</a> — %s</li>`+"\n", rt.path, rt.path, rt.desc)
		}
		fmt.Fprint(w, "</ul></body></html>\n")
	})
	for _, rt := range routes {
		mux.HandleFunc(rt.path, rt.handler)
	}
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve prints the banner to w and serves the dashboard on addr; it returns
// only on failure.
func (d *dashboard) serve(w io.Writer, addr string) error {
	display := addr
	if strings.HasPrefix(display, ":") {
		display = "localhost" + display
	}
	fmt.Fprintf(w, "\nserving %s on http://%s/ (%s)\n", d.title, display, d.panels)
	return http.ListenAndServe(addr, d.handler())
}

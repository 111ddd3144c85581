package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"

	"toss/internal/fleetobs"
	"toss/internal/insight"
	"toss/internal/xray"
)

// route is one dashboard endpoint: its path, the one-line description the
// index renders, and its handler. Keeping the table authoritative means the
// index can never drift from what is actually registered.
type route struct {
	path    string
	desc    string
	handler http.HandlerFunc
}

// routes returns the dashboard's endpoint table in index order.
func (r *Recorder) routes() []route {
	return []route{
		{"/metrics", "Prometheus text exposition", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := WritePrometheus(w, r.Metrics()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/timeseries.json", "sampled series, residency timelines, DAMON audits", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := WriteTimeseriesJSON(w, r.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/heatmap", "tier-residency heatmap", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			if err := WriteHeatmapHTML(w, r.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/xray", "per-function latency budgets (attribution waterfalls)", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			if err := WriteWaterfallHTML(w, r.XRayReport()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/xray.json", "aggregated attribution dump (tossctl report input)", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			doc := xray.RunDoc{Schema: xray.SchemaVersion, Reports: []*xray.Report{}}
			if rep := r.XRayReport(); rep != nil {
				doc.Reports = append(doc.Reports, rep)
			}
			if err := xray.WriteJSON(w, doc); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/fleet", "fleet node grid (utilization heat, queues, tier occupancy, per-node p99)", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			if err := fleetobs.WriteFleetHTML(w, r.FleetView()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/fleet.json", "fleet view as JSON (decision/scale totals per node)", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := fleetobs.WriteFleetJSON(w, r.FleetView()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/alerts", "SLO alert panel (firing rules, fire/resolve log, watched series)", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			res, ok := r.InsightResult()
			if err := WriteAlertsHTML(w, res, ok); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/alerts.json", "alert engine snapshot as an insight dump (tossctl report input)", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			dump := insight.Dump{Schema: insight.SchemaVersion, Cells: []insight.Result{}}
			if res, ok := r.InsightResult(); ok {
				dump.Cells = append(dump.Cells, res)
			}
			if err := insight.WriteDumpJSON(w, dump); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/healthz", "liveness", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}},
		{"/debug/pprof/", "Go runtime profiles", pprof.Index},
	}
}

// Handler returns the live dashboard: an index at / listing every
// registered endpoint (rendered from the same route table the mux is built
// from, so the index and the mux cannot disagree), Prometheus text at
// /metrics, the full snapshot at /timeseries.json, a self-contained HTML
// heatmap at /heatmap, the fleet node grid at /fleet and /fleet.json (when
// a fleet recorder is attached via SetFleet), the SLO alert panel at
// /alerts and /alerts.json (when an engine is attached via SetInsight), a
// liveness probe at /healthz, and the standard net/http/pprof endpoints
// under /debug/pprof/. Unknown paths return 404. Everything renders from a
// point-in-time snapshot taken per request, so a browser polling the
// dashboard never blocks the simulation for longer than one state copy.
func (r *Recorder) Handler() http.Handler {
	routes := r.routes()
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

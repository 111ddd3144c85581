package obs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"toss/internal/fleetobs"
	"toss/internal/insight"
	"toss/internal/obs"
	"toss/internal/simtime"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestDashboardEndpoints(t *testing.T) {
	rec := miniRun(t)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	code, body, _ := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/timeseries.json") {
		t.Errorf("index: code=%d body=%q", code, body)
	}

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics code=%d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, "toss_obs_restores") {
		t.Error("/metrics missing recorder families")
	}

	code, body, hdr = get(t, srv, "/timeseries.json")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Errorf("/timeseries.json code=%d ct=%q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `"timelines":[`) {
		t.Error("/timeseries.json missing timelines")
	}

	code, body, _ = get(t, srv, "/heatmap")
	if code != http.StatusOK || !strings.Contains(body, "<!DOCTYPE html>") ||
		!strings.Contains(body, "pyaes") {
		t.Errorf("/heatmap code=%d", code)
	}
	if strings.Contains(body, "<script") {
		t.Error("/heatmap must be self-contained with no scripts")
	}

	code, body, _ = get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz code=%d body=%q", code, body)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ code=%d", code)
	}

	// Unknown paths must 404, not fall through to the index.
	for _, path := range []string{"/no-such-page", "/fleet/nested", "/xray/"} {
		code, body, _ = get(t, srv, path)
		if code != http.StatusNotFound {
			t.Errorf("%s code=%d, want 404", path, code)
		}
		if strings.Contains(body, "flight recorder") {
			t.Errorf("%s served the index instead of 404", path)
		}
	}
}

// TestIndexListsRegisteredEndpoints pins the index to the mux: every link
// the index renders must serve 200, so the endpoint list can never drift
// from what is actually registered.
func TestIndexListsRegisteredEndpoints(t *testing.T) {
	rec := miniRun(t)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	code, body, _ := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("index: code=%d", code)
	}
	links := regexp.MustCompile(`href="([^"]+)"`).FindAllStringSubmatch(body, -1)
	if len(links) < 10 {
		t.Fatalf("index lists only %d endpoints:\n%s", len(links), body)
	}
	for _, m := range links {
		if code, _, _ := get(t, srv, m[1]); code != http.StatusOK {
			t.Errorf("index links %s but it serves %d", m[1], code)
		}
	}
	for _, want := range []string{`href="/alerts"`, `href="/alerts.json"`, `href="/healthz"`} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %s", want)
		}
	}
}

// TestAlertEndpoints covers the SLO alert panel: the empty banner without
// an engine, the firing view once one is attached, and the JSON snapshot
// round-tripping as a valid insight dump.
func TestAlertEndpoints(t *testing.T) {
	rec := miniRun(t)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	code, body, hdr := get(t, srv, "/alerts")
	if code != http.StatusOK || !strings.Contains(body, "no alert engine attached") {
		t.Errorf("/alerts without engine: code=%d body=%q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("/alerts content-type = %q", ct)
	}

	eng := insight.NewEngine(insight.NewStore(insight.Config{}), insight.Rule{
		Name: "util-high", Kind: insight.Threshold, Series: "util",
		Op: insight.Above, Limit: 0.8,
	})
	eng.Observe("util", simtime.Second, 0.95)
	rec.SetInsight(eng)

	code, body, _ = get(t, srv, "/alerts")
	if code != http.StatusOK || !strings.Contains(body, "FIRING: util-high") ||
		!strings.Contains(body, "<!DOCTYPE html>") {
		t.Errorf("/alerts with engine: code=%d body=%q", code, body)
	}
	if strings.Contains(body, "<script") {
		t.Error("/alerts must be self-contained with no scripts")
	}

	code, body, hdr = get(t, srv, "/alerts.json")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Errorf("/alerts.json code=%d ct=%q", code, hdr.Get("Content-Type"))
	}
	dump, err := insight.ReadDump(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/alerts.json is not a readable insight dump: %v", err)
	}
	if len(dump.Cells) != 1 || dump.Cells[0].Cell != "live" || dump.Cells[0].Fires() != 1 {
		t.Errorf("/alerts.json cells = %+v", dump.Cells)
	}

	// A nil recorder keeps the alert surface nil-safe.
	var nilRec *obs.Recorder
	nilRec.SetInsight(eng)
	if _, ok := nilRec.InsightResult(); ok {
		t.Error("nil recorder reported an attached engine")
	}
}

// TestFleetEndpoints covers the node-grid panel: the index links it, it
// renders the empty banner without a fleet recorder, and serves the grid
// once one is attached.
func TestFleetEndpoints(t *testing.T) {
	rec := miniRun(t)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	code, body, _ := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, `href="/fleet"`) ||
		!strings.Contains(body, `href="/fleet.json"`) {
		t.Errorf("index missing fleet links: code=%d", code)
	}

	code, body, hdr := get(t, srv, "/fleet")
	if code != http.StatusOK || !strings.Contains(body, "no fleet attached") {
		t.Errorf("/fleet without recorder: code=%d body=%q", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("/fleet content-type = %q", ct)
	}

	fr := fleetobs.New(fleetobs.Config{Interval: simtime.Second})
	fr.SampleAt(0, func() []fleetobs.NodeSample {
		return []fleetobs.NodeSample{{Node: "n01", Cores: 4, Running: 2, Alive: true}}
	})
	fr.RouteDecision(fleetobs.Decision{
		At: simtime.Millisecond, Function: "pyaes", Node: "n01",
		Reason: fleetobs.ReasonAffinity, Hit: true,
	})
	fr.Invocation("n01", 10*simtime.Millisecond, false)
	rec.SetFleet(fr)

	code, body, _ = get(t, srv, "/fleet")
	if code != http.StatusOK || !strings.Contains(body, "n01") || !strings.Contains(body, "<!DOCTYPE html>") {
		t.Errorf("/fleet with recorder: code=%d", code)
	}
	if strings.Contains(body, "<script") {
		t.Error("/fleet must be self-contained with no scripts")
	}

	code, body, hdr = get(t, srv, "/fleet.json")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Errorf("/fleet.json code=%d ct=%q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `"node":"n01"`) || !strings.Contains(body, `"decisions":1`) {
		t.Errorf("/fleet.json body=%q", body)
	}

	// A nil recorder keeps the whole surface nil-safe.
	var nilRec *obs.Recorder
	nilRec.SetFleet(fr)
	if nilRec.FleetView() != nil {
		t.Error("nil recorder returned a fleet view")
	}
}

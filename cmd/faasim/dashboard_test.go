package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"toss/internal/fleetobs"
	"toss/internal/insight"
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

// serveRun runs faasim with args plus -http and serves the dashboard it
// returns on a test server.
func serveRun(t *testing.T, args string) *httptest.Server {
	t.Helper()
	_, diag, code, dash := runFaasim(t, args+" -http :0")
	if code != 0 || dash == nil {
		t.Fatalf("faasim %s: exit %d (%s), dashboard %v", args, code, diag, dash)
	}
	srv := httptest.NewServer(dash.handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestDashboardDigests pins the body of every dashboard route but the
// pprof ones, in both modes, to FNV-64a digests recorded when each request
// recomputed its panel from the recorder; the dashboard now computes them
// once after the run, and must serve the same bytes. Cluster mode has no
// flight recorder: its index lists no recorder panel, and their paths 404.
func TestDashboardDigests(t *testing.T) {
	contentType := map[string]string{
		"/":                "text/html; charset=utf-8",
		"/metrics":         "text/plain; version=0.0.4; charset=utf-8",
		"/timeseries.json": "application/json",
		"/heatmap":         "text/html; charset=utf-8",
		"/xray":            "text/html; charset=utf-8",
		"/xray.json":       "application/json",
		"/fleet":           "text/html; charset=utf-8",
		"/fleet.json":      "application/json",
		"/alerts":          "text/html; charset=utf-8",
		"/alerts.json":     "application/json",
		"/healthz":         "text/plain; charset=utf-8",
	}
	// Pages that do not depend on the run, within a mode.
	const healthz, replayIndex, clusterIndex = 0x1a19f91921d9561f, 0xa933bf0e150ad128, 0xab75c4066f998b70
	for _, c := range []struct {
		args string
		want map[string]uint64
	}{
		{"-requests 40 -window 8 -slo 60ms -alerts", map[string]uint64{"/": replayIndex,
			"/metrics": 0x36e3539cb9abd068, "/timeseries.json": 0x5f5e87750056beeb, "/heatmap": 0xf734a66136435a0d,
			"/xray": 0x96069a98234b8237, "/xray.json": 0x508a5ae21d53d378,
			"/fleet": 0xbce1df577811c7f7, "/fleet.json": 0x7679a3dcdd8a6515,
			"/alerts": 0x36601a0c264011d1, "/alerts.json": 0x591ac93b80608e18}},
		{"-nodes 3 -horizon 5s", map[string]uint64{"/": clusterIndex,
			"/xray": 0x704f360f66cdd09c, "/xray.json": 0xd4d6d1c8c1953dbf,
			"/fleet": 0x7409544b2021810e, "/fleet.json": 0x782d028c1ce1c484,
			"/alerts": 0xd3dfc9fee6827202, "/alerts.json": 0x634a53155ec9a1a5}},
		{"-nodes 3 -horizon 5s -router affinity -arrival flash -autoscale -slo 120ms -alerts", map[string]uint64{"/": clusterIndex,
			"/xray": 0x82069f1a6724c362, "/xray.json": 0xe44224b9cc22c48a,
			"/fleet": 0x9d0302891d90f643, "/fleet.json": 0x55550e3814d92a99,
			"/alerts": 0x290e2164ca755f7e, "/alerts.json": 0x83477c482419f72b}},
	} {
		srv := serveRun(t, c.args)
		c.want["/healthz"] = healthz
		for path, ct := range contentType {
			code, body, hdr := get(t, srv, path)
			want, ok := c.want[path]
			if !ok {
				if code != http.StatusNotFound {
					t.Errorf("faasim %s: %s: code %d, want 404", c.args, path, code)
				}
				continue
			}
			if code != http.StatusOK || hdr.Get("Content-Type") != ct {
				t.Errorf("faasim %s: %s: code %d, content-type %q; want 200 and %q",
					c.args, path, code, hdr.Get("Content-Type"), ct)
			}
			if got := digest([]byte(body)); got != want {
				t.Errorf("faasim %s: %s digest %#x, want %#x", c.args, path, got, want)
			}
		}
	}
}

// replayServer serves the dashboard of a small single-function replay.
func replayServer(t *testing.T) *httptest.Server {
	return serveRun(t, "-functions pyaes -requests 30 -window 4")
}

func TestDashboardEndpoints(t *testing.T) {
	srv := replayServer(t)

	code, body, _ := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/timeseries.json") {
		t.Errorf("index: code=%d body=%q", code, body)
	}

	code, body, _ = get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "toss_obs_restores") {
		t.Errorf("/metrics code=%d, missing recorder families", code)
	}

	code, body, _ = get(t, srv, "/timeseries.json")
	if code != http.StatusOK || !strings.Contains(body, `"timelines":[`) {
		t.Errorf("/timeseries.json code=%d, missing timelines", code)
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

// TestIndexListsRegisteredEndpoints pins the index to the mux in both
// modes: every link the index renders must serve 200, so the endpoint list
// can never drift from what is actually registered. The replay index lists
// the flight recorder's panels; the cluster index, which has no recorder,
// must not.
func TestIndexListsRegisteredEndpoints(t *testing.T) {
	recorder := []string{`href="/metrics"`, `href="/timeseries.json"`, `href="/heatmap"`}
	common := []string{`href="/alerts"`, `href="/alerts.json"`, `href="/fleet"`, `href="/fleet.json"`, `href="/healthz"`}
	for _, c := range []struct {
		name  string
		srv   *httptest.Server
		links int
	}{
		{"replay", replayServer(t), 11},
		{"cluster", serveRun(t, "-nodes 2 -horizon 2s"), 8},
	} {
		code, body, _ := get(t, c.srv, "/")
		if code != http.StatusOK {
			t.Fatalf("%s index: code=%d", c.name, code)
		}
		links := regexp.MustCompile(`href="([^"]+)"`).FindAllStringSubmatch(body, -1)
		if len(links) != c.links {
			t.Errorf("%s index lists %d endpoints, want %d:\n%s", c.name, len(links), c.links, body)
		}
		for _, m := range links {
			if code, _, _ := get(t, c.srv, m[1]); code != http.StatusOK {
				t.Errorf("%s index links %s but it serves %d", c.name, m[1], code)
			}
		}
		for _, want := range common {
			if !strings.Contains(body, want) {
				t.Errorf("%s index missing %s", c.name, want)
			}
		}
		for _, link := range recorder {
			if got, want := strings.Contains(body, link), c.name == "replay"; got != want {
				t.Errorf("%s index lists %s: %v, want %v", c.name, link, got, want)
			}
		}
	}
}

// TestAlertEndpoints covers the SLO alert panel: the empty banner without
// an engine, the firing view with one, and the JSON snapshot reading back
// as a one-cell insight dump named "live".
func TestAlertEndpoints(t *testing.T) {
	code, body, hdr := get(t, replayServer(t), "/alerts")
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
	srv := httptest.NewServer(newDashboard("", "", nil, nil, nil, eng).handler())
	defer srv.Close()

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
}

// TestFleetEndpoints covers the node-grid panel: the empty banner without a
// fleet recorder, and the grid and its JSON view with one.
func TestFleetEndpoints(t *testing.T) {
	code, body, hdr := get(t, replayServer(t), "/fleet")
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
	srv := httptest.NewServer(newDashboard("", "", nil, nil, fr, nil).handler())
	defer srv.Close()

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
}

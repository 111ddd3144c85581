package obs

import (
	"bytes"
	"strings"
	"testing"

	"toss/internal/guest"
	"toss/internal/simtime"
	"toss/internal/telemetry"
)

func heatmapFixture() Snapshot {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: simtime.Second, Metrics: m})
	// f spends the first half all-fast, the second half 50% slow.
	r.ObservePlacement("f", nil, 100, "boot")
	r.Advance(10 * simtime.Second)
	r.ObservePlacement("f", []guest.Region{{Start: 0, Pages: 50}}, 100, "converged")
	r.Advance(10 * simtime.Second)
	return r.Snapshot()
}

func TestRenderHeatmap(t *testing.T) {
	out := RenderHeatmap(heatmapFixture(), 16)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	row := []rune(lines[1])
	// Row = name, two spaces, then 16 shade columns.
	cols := row[len(row)-16:]
	if cols[0] != '█' {
		t.Errorf("first half should be all-fast '█': %q", string(cols))
	}
	if cols[15] != '▒' {
		t.Errorf("second half should be 50%% '▒': %q", string(cols))
	}
}

func TestRenderHeatmapEmpty(t *testing.T) {
	if out := RenderHeatmap(Snapshot{}, 16); !strings.Contains(out, "no timelines") {
		t.Errorf("empty heatmap = %q", out)
	}
}

func TestShadeBoundaries(t *testing.T) {
	cases := []struct {
		share float64
		want  rune
	}{{0, ' '}, {0.1, ' '}, {0.3, '░'}, {0.5, '▒'}, {0.7, '▓'}, {0.95, '█'}, {1, '█'}, {-1, ' '}, {2, '█'}}
	for _, c := range cases {
		if got := shadeFor(c.share); got != c.want {
			t.Errorf("shadeFor(%v) = %q, want %q", c.share, got, c.want)
		}
	}
}

func TestWriteHeatmapHTMLEscapes(t *testing.T) {
	m := telemetry.NewMetrics()
	r := New(Config{Interval: simtime.Second, Metrics: m})
	r.ObservePlacement("<img src=x>", nil, 10, "boot")
	var b bytes.Buffer
	if err := WriteHeatmapHTML(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "<img") {
		t.Error("function name not HTML-escaped")
	}
	if !strings.Contains(b.String(), "&lt;img src=x&gt;") {
		t.Error("escaped name missing from output")
	}
}

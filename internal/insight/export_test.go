package insight

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toss/internal/emit"
	"toss/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenDump is the fixed dump testdata/dump.json pins: fire and resolve
// edges with a blame, a rule still firing at the end, a live engine that
// raised no alerts, a nil engine's cell, and values whose shortest
// spelling carries an exponent.
func goldenDump() Dump {
	hot := NewEngine(nil, Rule{Name: "hot", Kind: Threshold, Series: "rate", Op: Above, Limit: 1e6})
	hot.Observe("rate", simtime.Second, 1e-05)
	hot.Observe("rate", 2*simtime.Second, 2.5e+08)
	quiet := NewEngine(nil, Rule{Name: "never", Kind: Threshold, Series: "rate", Op: Above, Limit: 1e9})
	quiet.Observe("rate", simtime.Second, 1e-05)
	quiet.Observe("rate", 3*simtime.Second, 0.25)
	var none *Engine
	return Dump{Schema: SchemaVersion, Cells: []Result{
		feedDemo("demo/cell"),
		hot.Result("hot/cell"),
		none.Result("nil/cell"),
		quiet.Result("quiet/cell"),
	}}
}

// TestDumpGolden pins the insight dump's bytes, and reading the golden
// back must re-encode to the same bytes.
func TestDumpGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDumpJSON(&buf, goldenDump()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "dump.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/insight -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("dump drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	d, err := ReadDump(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteDumpJSON(&again, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("golden did not survive a read and re-encode:\n--- got ---\n%s\n--- want ---\n%s", again.Bytes(), want)
	}
}

// TestWriteDumpJSONRejectsNonFinite: NaN and ±Inf have no JSON spelling,
// so a series or alert value holding one fails the write, which then
// writes nothing.
func TestWriteDumpJSONRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		series := goldenDump()
		series.Cells[0].Series[0].Mean = emit.Float(v)
		alert := goldenDump()
		alert.Cells[0].Alerts[0].Value = emit.Float(v)
		for name, d := range map[string]Dump{"series": series, "alert": alert} {
			var buf bytes.Buffer
			if err := WriteDumpJSON(&buf, d); err == nil {
				t.Errorf("%s value %v: no error", name, v)
			}
			if buf.Len() != 0 {
				t.Errorf("%s value %v: wrote %q", name, v, buf.Bytes())
			}
		}
	}
}

// FuzzReadDump: whatever ReadDump accepts must re-encode and read back to
// an equal dump.
func FuzzReadDump(f *testing.F) {
	for _, path := range []string{
		filepath.Join("testdata", "dump.json"),
		filepath.Join("..", "xray", "testdata", "rundoc.json"),
		filepath.Join("..", "..", "BENCH_experiments.json"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema_version":1,"experiments":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDumpJSON(&buf, d); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("re-read %s: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip drifted:\nfirst  %+v\nsecond %+v", d, again)
		}
	})
}

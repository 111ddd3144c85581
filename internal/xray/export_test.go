package xray

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenDoc is the fixture the golden file renders: two experiments, marks
// present and absent, multi-function reports.
func goldenDoc() RunDoc {
	return RunDoc{
		Schema: SchemaVersion,
		Reports: []*Report{
			Aggregate("fig2", sampleBudgets()),
			Aggregate("ext1", sampleBudgets()[:1]),
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/xray -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenDoc()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rundoc.json", buf.Bytes())
}

// TestWriteJSONEmptyReport pins an experiment that recorded no budgets: its
// report still encodes "functions":[], never null.
func TestWriteJSONEmptyReport(t *testing.T) {
	doc := RunDoc{Schema: SchemaVersion, Reports: []*Report{Aggregate("table1", nil)}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	want := `{"schema_version":1,"experiments":[{"experiment":"table1","records":0,"total_ns":0,"functions":[]}]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("empty report:\n got: %s\nwant: %s", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	doc := goldenDoc()
	// Labels are escaped as JSON strings, so control bytes survive.
	doc.Reports[0].Functions[0].Label = "ctl\x01<&>"
	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("round trip drifted:\ngot  %+v\nwant %+v", got, doc)
	}
	// Re-serialize: must be byte-identical (determinism of the writer).
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, got); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := WriteJSON(&buf3, doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage input must error")
	}
}

// TestReadJSONRejectsNullReport: a null entry in experiments is an error,
// never a nil report for callers to dereference.
func TestReadJSONRejectsNullReport(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(nullReportDoc)); err == nil {
		t.Fatal("null report accepted")
	}
}

const nullReportDoc = `{"schema_version":1,"experiments":[null]}`

// FuzzReadJSON: whatever ReadJSON accepts must re-encode and read back to
// an equal document.
func FuzzReadJSON(f *testing.F) {
	for _, path := range []string{
		filepath.Join("testdata", "rundoc.json"),
		filepath.Join("..", "insight", "testdata", "dump.json"),
		filepath.Join("..", "..", "BENCH_experiments.json"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(nullReportDoc))
	// An empty marks list must read back as none, as Aggregate leaves it;
	// the writer omits it, so it would not survive the round trip.
	f.Add([]byte(`{"schema_version":1,"experiments":[{"experiment":"e","records":1,"total_ns":1,` +
		`"functions":[{"label":"f","records":1,"total_ns":1,"segments":[],"marks":[]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, doc); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("re-read %s: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(doc, again) {
			t.Fatalf("round trip drifted:\nfirst  %+v\nsecond %+v", doc, again)
		}
	})
}

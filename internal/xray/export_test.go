package xray

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenDoc is the fixture both golden files render: two experiments, marks
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

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, goldenDoc()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rundoc.csv", buf.Bytes())
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

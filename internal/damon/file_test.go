package damon

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"toss/internal/guest"
)

func TestPatternRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.damon")
	want := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 16}, NrAccesses: 120},
		{Region: guest.Region{Start: 100, Pages: 4}, NrAccesses: 7},
	}}
	if err := WritePattern(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], want.Records[i])
		}
	}
}

func TestPatternEmptyRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.damon")
	if err := WritePattern(path, Pattern{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 {
		t.Errorf("empty pattern read back %d records", len(got.Records))
	}
}

func TestReadPatternRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.damon")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPattern(path); err == nil {
		t.Error("junk accepted")
	}
	// Valid header, truncated body.
	good := filepath.Join(dir, "good.damon")
	if err := WritePattern(good, Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 9},
	}}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPattern(path); err == nil {
		t.Error("truncated pattern accepted")
	}
	if _, err := ReadPattern(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadPatternBoundsHostileCounts patches the record count of a valid
// pattern file: a count whose records cannot fit in the file must be
// rejected as corrupt before anything is allocated for it. A count of
// 2^30−1 once reserved 24 GiB and killed the process.
func TestReadPatternBoundsHostileCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.damon")
	if err := WritePattern(path, Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 9},
	}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{2, 1<<30 - 1, 1 << 30, 1<<63 - 1, -1} {
		// The count follows the 16-byte header.
		binary.LittleEndian.PutUint64(data[16:], uint64(n))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPattern(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestUnifiedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.damon")
	u := NewUnified()
	u.Fold(Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 3, Pages: 5}, NrAccesses: 42},
		{Region: guest.Region{Start: 50, Pages: 2}, NrAccesses: 9000},
	}})
	if err := WriteUnified(path, u); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUnified(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Histogram().Equal(u.Histogram()) {
		t.Error("unified round trip lost counts")
	}
	// Folding the same data into the restored unified must report no
	// change — the convergence state survives persistence.
	if got.Fold(Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 3, Pages: 5}, NrAccesses: 42},
	}}) {
		t.Error("restored unified treats known pattern as change")
	}
}

func TestReadUnifiedRejectsWrongMagic(t *testing.T) {
	dir := t.TempDir()
	// A pattern file is not a unified file.
	p := filepath.Join(dir, "p.damon")
	if err := WritePattern(p, Pattern{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadUnified(p); err == nil {
		t.Error("pattern file accepted as unified")
	}
}

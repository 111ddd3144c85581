package access

import (
	"testing"

	"toss/internal/guest"
)

func TestTraceCountsMatchesManualFold(t *testing.T) {
	var tr Trace
	tr.Append(Event{Region: guest.Region{Start: 2, Pages: 4}, LinesPerPage: 8, Repeat: 3, HitRatio: 0.5})
	tr.Append(Event{Region: guest.Region{Start: 4, Pages: 2}, LinesPerPage: 2, Repeat: 1, Kind: Write})

	want := NewHistogram()
	want.AddTrace(&tr)
	got := tr.Counts()
	if !got.Equal(want) {
		t.Fatal("Counts() differs from AddTrace fold")
	}
	if again := tr.Counts(); again != got {
		t.Error("Counts() not memoized: distinct pointers for unchanged trace")
	}

	// Appending invalidates the memo.
	tr.Append(Event{Region: guest.Region{Start: 100, Pages: 1}, LinesPerPage: 1, Repeat: 1})
	fresh := tr.Counts()
	if fresh == got {
		t.Error("Counts() stale after Append")
	}
	if fresh.Count(100) != 1 {
		t.Errorf("count(100) = %d, want 1", fresh.Count(100))
	}
}

func TestTracePagesMemoInvalidatedByAppend(t *testing.T) {
	var tr Trace
	tr.Append(Event{Region: guest.Region{Start: 0, Pages: 2}, LinesPerPage: 1, Repeat: 1})
	if got := tr.FootprintPages(); got != 2 {
		t.Fatalf("footprint = %d, want 2", got)
	}
	tr.Append(Event{Region: guest.Region{Start: 10, Pages: 3}, LinesPerPage: 1, Repeat: 1})
	if got := tr.FootprintPages(); got != 5 {
		t.Fatalf("footprint after append = %d, want 5", got)
	}
}

package main

import (
	"testing"

	"toss/internal/workload"
)

// TestSummarizeEmptyAndSingle covers the degenerate inputs, and pins the
// row order to the functions list, not to map iteration, so the example
// prints the same summary on every run.
func TestSummarizeEmptyAndSingle(t *testing.T) {
	if got := summarize(nil, nil); len(got) != 0 {
		t.Errorf("summarize(nil, nil) = %v", got)
	}
	if got := summarize(nil, []string{"x"}); len(got) != 1 || got[0] != (stats{Function: "x"}) {
		t.Errorf("no arrivals for x: %+v", got)
	}
	st := summarize([]workload.ArrivalSpec{{At: 5, Function: "x"}}, []string{"x"})[0]
	if st.Count != 1 || st.MeanIAT != 0 || st.MaxGap != 0 {
		t.Errorf("single-arrival stats = %+v", st)
	}

	arrivals := []workload.ArrivalSpec{
		{At: 1, Function: "b"}, {At: 2, Function: "a"}, {At: 4, Function: "b"},
		{At: 5, Function: "c"}, {At: 9, Function: "b"},
	}
	functions := []string{"c", "a", "b"}
	for run := 0; run < 20; run++ {
		got := summarize(arrivals, functions)
		if len(got) != len(functions) {
			t.Fatalf("got %d rows, want %d", len(got), len(functions))
		}
		for i, fn := range functions {
			if got[i].Function != fn {
				t.Fatalf("row %d is %q, want %q", i, got[i].Function, fn)
			}
		}
		if b := got[2]; b.Count != 3 || b.MeanIAT != 4 || b.MaxGap != 5 {
			t.Fatalf("b stats = %+v, want count 3, mean IAT 4, max gap 5", b)
		}
	}
}

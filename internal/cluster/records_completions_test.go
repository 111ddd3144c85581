package cluster

import (
	"testing"

	"toss/internal/simtime"
)

func TestCompletionsSortedByCompletionTime(t *testing.T) {
	r := &Records{fnNames: []string{"a", "b"}, nodeNames: []string{"n0"}}
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	// Three invocations whose completion order differs from arrival order:
	// #0 arrives first but runs long; #1 arrives later and finishes first;
	// #2 ties #0's completion time and must keep record order (stable sort).
	r.push(0, 0, 1, 0, true, ms(0), 0, 0, ms(10), ms(90)) // completes at 100ms
	r.push(1, 0, 2, 0, false, ms(50), 0, 0, 0, ms(20))    // completes at 70ms
	r.push(0, 0, 1, 0, false, ms(60), 0, 0, 0, ms(40))    // completes at 100ms
	got := r.Completions()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Function != "b" || got[0].At != ms(70) || got[0].Latency != ms(20) || got[0].Cold || got[0].Level != 2 {
		t.Fatalf("first completion = %+v", got[0])
	}
	if got[1].At != ms(100) || !got[1].Cold || got[1].Latency != ms(100) {
		t.Fatalf("tie order lost: %+v", got[1])
	}
	if got[2].At != ms(100) || got[2].Cold {
		t.Fatalf("tie order lost: %+v", got[2])
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("completions not nondecreasing at %d", i)
		}
	}
}

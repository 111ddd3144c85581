package cluster

import (
	"slices"
	"sort"
	"testing"

	"toss/internal/simtime"
	"toss/internal/workload"
)

// completion is one record as the completion walk visits it.
type completion struct {
	At, Latency simtime.Duration
	Function    string
	Level       int
	Cold        bool
}

func completionOf(r *Records, i int) completion {
	return completion{
		At:       r.Arrival(i) + r.Latency(i),
		Latency:  r.Latency(i),
		Function: r.Function(i),
		Level:    r.Level(i),
		Cold:     r.Cold(i),
	}
}

// walkCompletions visits the records through Completed, in completion order.
func walkCompletions(r *Records) []completion {
	out := make([]completion, r.Len())
	for k := range out {
		out[k] = completionOf(r, r.Completed(k))
	}
	return out
}

// sortedCompletions is the reference the walk reads against: every record
// in record order, stable-sorted by completion time.
func sortedCompletions(r *Records) []completion {
	out := make([]completion, r.Len())
	for i := range out {
		out[i] = completionOf(r, i)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ties counts adjacent completions that share a time, and how many of
// those differ in some field, so their order is visible in the feed.
func ties(cs []completion) (same, distinct int) {
	for i := 1; i < len(cs); i++ {
		if cs[i].At == cs[i-1].At {
			same++
			if cs[i] != cs[i-1] {
				distinct++
			}
		}
	}
	return same, distinct
}

// TestCompletionsSortedByCompletionTime holds the completion log, which the
// event loop appends as completions pop, to a stable sort of the records by
// arrival+latency: on seeded runs under every router, and on a hand-built
// schedule of simultaneous arrivals whose completions tie, where the sort's
// record-order rule decides.
func TestCompletionsSortedByCompletionTime(t *testing.T) {
	check := func(name string, rep *Report) []completion {
		t.Helper()
		got := walkCompletions(&rep.Records)
		if want := sortedCompletions(&rep.Records); !slices.Equal(got, want) {
			t.Fatalf("%s: completion log differs from the stable sort by completion time", name)
		}
		return got
	}
	for _, policy := range Policies() {
		for _, proc := range []workload.Process{workload.ProcFlash, workload.ProcDiurnalFlash} {
			cfg := testConfig(3, policy)
			cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}
			check(policy.String()+"/"+proc.String(), runOnce(t, cfg, testArrivals(t, proc, 25*simtime.Millisecond)))
		}
	}
	// Without an SLO there is no burn tracker, and the log must still fill.
	noSLO := testConfig(3, RouteAffinity)
	noSLO.SLO = 0
	check("no SLO", runOnce(t, noSLO, testArrivals(t, workload.ProcFlash, 25*simtime.Millisecond)))

	// Three waves of one function a millisecond apart onto one 4-core
	// node: warm invocations dispatched together finish together, and
	// arrivals from different waves queued behind them start together on
	// the cores those completions free, so completions tie between records
	// with different arrival times.
	var burst []workload.ArrivalSpec
	for wave := 0; wave < 3; wave++ {
		for k := 0; k < 4; k++ {
			burst = append(burst, workload.ArrivalSpec{At: simtime.Duration(wave) * simtime.Millisecond, Function: testFns[0]})
		}
	}
	got := check("simultaneous arrivals", runOnce(t, testConfig(1, RouteAffinity), burst))
	same, distinct := ties(got)
	if distinct == 0 {
		t.Fatalf("simultaneous arrivals produced %d completion-time ties, none between distinguishable records; the tie-break is untested", same)
	}
}

package cluster

import (
	"runtime"
	"testing"
	"time"

	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// spacedArrivals is n arrivals of one function a second apart, so each one
// is dispatched the moment it is routed.
func spacedArrivals(n int) []workload.ArrivalSpec {
	out := make([]workload.ArrivalSpec, n)
	for k := range out {
		out[k] = workload.ArrivalSpec{At: simtime.Duration(k) * simtime.Second, Function: testFns[0]}
	}
	return out
}

// panicSource panics on its n-th Next.
type panicSource struct{ n int }

type sourcePanic struct{}

func (s *panicSource) Next() (workload.ArrivalSpec, bool) {
	if s.n--; s.n == 0 {
		panic(sourcePanic{})
	}
	return workload.ArrivalSpec{At: simtime.Second, Function: testFns[0]}, true
}

// runStreamGoroutines runs RunStream over src with an xray collector on and
// returns its error, the number of invocations it dispatched, and how many
// goroutines more than before the call are left (see outlived).
func runStreamGoroutines(t *testing.T, src workload.Source) (err error, dispatched, leaked int) {
	t.Helper()
	cfg := testConfig(3, RouteAffinity)
	col := &xray.Collector{}
	cfg.XRay = col
	c, err := New(cfg, testProfiles(testFns...))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	defer func() { leaked = outlived(before) }()
	_, err = c.RunStream(src)
	return err, len(col.Drain()), 0
}

// outlived returns how far the goroutine count stays above before. A
// joined goroutine has closed its done channel but may still be unwinding
// when the join returns, so the count is polled until it is back to
// before, for up to five seconds; a leaked producer stays blocked and
// keeps it up.
func outlived(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return max(n-before, 0)
}

// TestRunStreamMidStreamErrors fails a stream three batches in, once on an
// arrival earlier than the one before it and once on an unprofiled
// function. Each error carries the text a pull-at-a-time loop gave, and
// surfaces where that loop raised it: after the arrival before the bad one
// became pending, before it was routed. No goroutine outlives the call, on
// success either.
func TestRunStreamMidStreamErrors(t *testing.T) {
	const good = 2*batchLen + 500
	backwards := spacedArrivals(good + 1)
	backwards[good].At = simtime.Second
	unprofiled := spacedArrivals(good + 1)
	unprofiled[good].Function = "unprofiled"
	for _, c := range []struct {
		name     string
		arrivals []workload.ArrivalSpec
		want     string
	}{
		{"out of order", backwards, "cluster: arrival at 1s is out of time order (clock at 42m27s)"},
		{"unprofiled", unprofiled, `cluster: arrival for unprofiled function "unprofiled"`},
	} {
		err, dispatched, leaked := runStreamGoroutines(t, workload.SliceSource(c.arrivals))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if dispatched != good-1 {
			t.Errorf("%s: %d invocations dispatched before the error, want %d", c.name, dispatched, good-1)
		}
		if leaked != 0 {
			t.Errorf("%s: %d goroutines outlived RunStream", c.name, leaked)
		}
	}
	err, dispatched, leaked := runStreamGoroutines(t, workload.SliceSource(spacedArrivals(good)))
	if err != nil || dispatched != good || leaked != 0 {
		t.Errorf("clean stream: error %v, %d of %d dispatched, %d goroutines outlived RunStream", err, dispatched, good, leaked)
	}
}

// TestRunStreamReraisesSourcePanic makes the source panic on the producer
// goroutine; RunStream must raise the same value on the caller's
// goroutine, after joining the producer.
func TestRunStreamReraisesSourcePanic(t *testing.T) {
	for _, n := range []int{1, batchLen + 7} {
		before := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			runStreamGoroutines(t, &panicSource{n: n})
		}()
		if _, ok := got.(sourcePanic); !ok {
			t.Errorf("panic on pull %d: RunStream raised %v, want the source's value", n, got)
		}
		if leaked := outlived(before); leaked != 0 {
			t.Errorf("panic on pull %d: %d goroutines outlived RunStream", n, leaked)
		}
	}
}

// TestRunStreamProducerStops covers the exit a finished run never takes:
// the loop leaving, say on a panic of its own, while the producer waits for
// a free batch. stop must still return, with the producer gone.
func TestRunStreamProducerStops(t *testing.T) {
	before := runtime.NumGoroutine()
	p := startProducer(workload.SliceSource(spacedArrivals(10*batchLen)), map[string]int32{testFns[0]: 0})
	if b := <-p.full; b.n != batchLen || b.final {
		t.Fatalf("first batch: %d arrivals, final %v; want a full batch", b.n, b.final)
	}
	p.stop()
	if leaked := outlived(before); leaked != 0 {
		t.Errorf("%d goroutines outlived stop", leaked)
	}
}

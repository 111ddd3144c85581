package keepalive

import (
	"testing"

	"toss/internal/fault"
	"toss/internal/simtime"
)

// TestFlushWithOpenBreaker walks the cache and the per-function circuit
// breaker through the sequence the scheduler produces under fault injection
// (previously only covered end-to-end via ext8): consecutive restore faults
// trip the breaker open, an eviction storm flushes the whole cache, the
// open breaker then vetoes re-admission of the faulting function while a
// healthy one refills immediately, and after the cooldown the half-open
// trial re-admits the faulting function — success closing the breaker,
// keeping the VM warm again.
func TestFlushWithOpenBreaker(t *testing.T) {
	cache := newCache(t, 1<<20, 8<<20)
	br := fault.NewBreaker()

	bad := item("faulty", 100, 800, 50*simtime.Millisecond)
	good := item("healthy", 100, 800, 30*simtime.Millisecond)

	// Both functions start warm.
	for _, it := range []Item{bad, good} {
		if _, ok := cache.Admit(it); !ok {
			t.Fatalf("admit %s: rejected", it.Function)
		}
	}

	// Three consecutive faulted invocations trip "faulty"'s breaker open.
	for i := 0; i < 3; i++ {
		br.Record("faulty", true)
	}
	if st := br.State("faulty"); st != fault.BreakerOpen {
		t.Fatalf("after 3 faults: state %v, want open", st)
	}

	// Eviction storm: the whole cache flushes, in sorted name order.
	names := cache.Flush()
	if len(names) != 2 || names[0] != "faulty" || names[1] != "healthy" {
		t.Fatalf("Flush returned %v, want [faulty healthy]", names)
	}
	if len(cache.items) != 0 {
		t.Fatalf("cache not empty after flush: %d items", len(cache.items))
	}
	if f, s := cache.Occupancy(); f != 0 || s != 0 {
		t.Fatalf("occupancy (%d, %d) after flush, want (0, 0)", f, s)
	}

	// Post-storm refill: the scheduler consults the breaker before every
	// admission. The healthy function refills; the faulting one is vetoed
	// while the breaker burns its cooldown.
	if !br.Allow("healthy") {
		t.Fatal("breaker vetoed the healthy function")
	}
	if _, ok := cache.Admit(good); !ok {
		t.Fatal("healthy function rejected after flush")
	}
	vetoes := 0
	for br.State("faulty") == fault.BreakerOpen && vetoes < 100 {
		if br.Allow("faulty") {
			break
		}
		vetoes++
	}
	if vetoes != 15 {
		// Cooldown 16 means fifteen rejected queries, then the sixteenth
		// flips to half-open and is allowed.
		t.Fatalf("breaker absorbed %d vetoes before half-open, want 15", vetoes)
	}
	if st := br.State("faulty"); st != fault.BreakerHalfOpen {
		t.Fatalf("after cooldown: state %v, want half-open", st)
	}
	if cache.Contains("faulty") {
		t.Fatal("faulty function re-entered the cache while vetoed")
	}

	// The half-open trial runs clean: the VM is re-admitted and the breaker
	// closes, so the next admission needs no trial.
	if _, ok := cache.Admit(bad); !ok {
		t.Fatal("trial admission rejected")
	}
	br.Record("faulty", false)
	if st := br.State("faulty"); st != fault.BreakerClosed {
		t.Fatalf("after clean trial: state %v, want closed", st)
	}
	if !cache.Contains("faulty") || !cache.Contains("healthy") {
		t.Fatal("both functions should be warm again after recovery")
	}
	if !br.Allow("faulty") {
		t.Fatal("closed breaker vetoed admission")
	}
	if trips := br.Trips(); trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}
}

// TestFlushTrialReopens covers the unhappy half-open outcome after a storm:
// a faulted trial reopens the breaker and the function stays out of the
// cache for another full cooldown.
func TestFlushTrialReopens(t *testing.T) {
	cache := newCache(t, 1<<20, 8<<20)
	br := fault.NewBreaker()

	if _, ok := cache.Admit(item("faulty", 100, 800, 50*simtime.Millisecond)); !ok {
		t.Fatal("initial admit rejected")
	}
	for i := 0; i < 3; i++ {
		br.Record("faulty", true)
	}
	cache.Flush()

	// Burn the cooldown to half-open, then fault the trial.
	for !br.Allow("faulty") {
	}
	if st := br.State("faulty"); st != fault.BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", st)
	}
	br.Record("faulty", true)
	if st := br.State("faulty"); st != fault.BreakerOpen {
		t.Fatalf("after faulted trial: state %v, want open again", st)
	}
	if br.Allow("faulty") {
		t.Fatal("reopened breaker allowed admission immediately")
	}
	if trips := br.Trips(); trips != 2 {
		t.Fatalf("trips = %d, want 2 (initial trip + reopened trial)", trips)
	}
	if cache.Contains("faulty") {
		t.Fatal("faulty function must stay out of the cache")
	}
}

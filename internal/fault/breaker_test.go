package fault

import "testing"

// trip records breakerThreshold consecutive faults for fn.
func trip(b *Breaker, fn string) {
	for i := 0; i < breakerThreshold; i++ {
		b.Record(fn, true)
	}
}

// burnCooldown makes the breakerCooldown-1 Allow queries an open breaker
// rejects, failing t if one is allowed.
func burnCooldown(t *testing.T, b *Breaker, fn string) {
	t.Helper()
	for i := 1; i < breakerCooldown; i++ {
		if b.Allow(fn) {
			t.Fatalf("allowed during cooldown (query %d)", i)
		}
	}
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < breakerThreshold-1; i++ {
		b.Record("f", true)
		if !b.Allow("f") {
			t.Fatalf("rejected before threshold (fault %d)", i+1)
		}
	}
	b.Record("f", true) // the threshold-th consecutive fault trips it
	if b.State("f") != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State("f"))
	}
	if b.Allow("f") {
		t.Fatal("open breaker allowed")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d", b.Trips())
	}
	// Other functions are unaffected.
	if !b.Allow("g") || b.State("g") != BreakerClosed {
		t.Fatal("unrelated function affected")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < breakerThreshold-1; i++ {
		b.Record("f", true)
	}
	b.Record("f", false) // streak broken
	for i := 0; i < breakerThreshold-1; i++ {
		b.Record("f", true)
	}
	if b.State("f") != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State("f"))
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	b := NewBreaker()
	trip(b, "f")
	if b.State("f") != BreakerOpen {
		t.Fatal("did not trip")
	}
	burnCooldown(t, b, "f")
	if !b.Allow("f") { // cooldown spent → half-open trial
		t.Fatal("no trial after cooldown")
	}
	if b.State("f") != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State("f"))
	}
	// Clean trial closes it.
	b.Record("f", false)
	if b.State("f") != BreakerClosed || !b.Allow("f") {
		t.Fatal("clean trial did not close")
	}

	// Trip again; a faulted trial reopens with a fresh cooldown.
	trip(b, "f")
	burnCooldown(t, b, "f")
	if !b.Allow("f") {
		t.Fatal("no second trial")
	}
	b.Record("f", true)
	if b.State("f") != BreakerOpen {
		t.Fatalf("state = %v, want reopen", b.State("f"))
	}
	if b.Allow("f") {
		t.Fatal("reopened breaker allowed at once")
	}
	if b.Trips() != 3 {
		t.Fatalf("trips = %d, want 3", b.Trips())
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow("f") {
		t.Fatal("nil breaker rejected")
	}
	b.Record("f", true)
	if b.State("f") != BreakerClosed || b.Trips() != 0 {
		t.Fatal("nil breaker has state")
	}
}

package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toss/internal/simtime"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var inj *Injector
	if _, ok := inj.At(SiteSlowRead, "f", 0); ok {
		t.Fatal("nil injector fired")
	}
	if inj.Total() != 0 || inj.Counts() != nil {
		t.Fatal("nil injector has counts")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	inj, err := New(Plan{Seed: 7, Sites: map[Site]Spec{
		SiteSlowRead: {Rate: 0},
		SiteDiskRead: {Rate: 1, Stall: simtime.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		if _, ok := inj.At(SiteSlowRead, "f", simtime.Duration(q)); ok {
			t.Fatal("rate-0 site fired")
		}
		spec, ok := inj.At(SiteDiskRead, "f", simtime.Duration(q))
		if !ok {
			t.Fatal("rate-1 site did not fire")
		}
		if spec.Stall != simtime.Millisecond {
			t.Fatalf("spec stall = %v", spec.Stall)
		}
	}
	if got := inj.Counts()[SiteDiskRead]; got != 100 {
		t.Fatalf("disk-read fires = %d, want 100", got)
	}
	if inj.Total() != 100 {
		t.Fatalf("total = %d, want 100", inj.Total())
	}
}

// TestDeterministicFiring replays the same query script on two injectors
// built from the same plan and requires identical firing sequences, and a
// different seed to produce a different sequence.
func TestDeterministicFiring(t *testing.T) {
	plan := func(seed int64) Plan {
		return Plan{Seed: seed, Sites: map[Site]Spec{
			SiteSlowRead:   {Rate: 0.3, Stall: simtime.Millisecond},
			SiteSlowOutage: {Rate: 0.2},
		}}
	}
	script := func(inj *Injector) string {
		out := ""
		for q := 0; q < 200; q++ {
			fn := fmt.Sprintf("fn%d", q%3)
			site := SiteSlowRead
			if q%5 == 0 {
				site = SiteSlowOutage
			}
			if _, ok := inj.At(site, fn, simtime.Duration(q)*simtime.Microsecond); ok {
				out += "1"
			} else {
				out += "0"
			}
		}
		return out
	}
	a, _ := New(plan(1))
	b, _ := New(plan(1))
	c, _ := New(plan(2))
	sa, sb, sc := script(a), script(b), script(c)
	if sa != sb {
		t.Fatalf("same seed diverged:\n%s\n%s", sa, sb)
	}
	if sa == sc {
		t.Fatal("different seeds produced identical firings")
	}
}

func TestRateRoughlyHolds(t *testing.T) {
	inj, _ := New(Plan{Seed: 3, Sites: map[Site]Spec{SiteSlowRead: {Rate: 0.25}}})
	fires := 0
	const n = 4000
	for q := 0; q < n; q++ {
		if _, ok := inj.At(SiteSlowRead, "f", simtime.Duration(q)); ok {
			fires++
		}
	}
	got := float64(fires) / n
	if got < 0.2 || got > 0.3 {
		t.Fatalf("empirical rate %.3f far from 0.25", got)
	}
}

func TestMaxFiresCapsPerFunction(t *testing.T) {
	inj, _ := New(Plan{Seed: 1, Sites: map[Site]Spec{
		SiteRestoreCorrupt: {Rate: 1, MaxFires: 2},
	}})
	count := func(fn string) int {
		n := 0
		for q := 0; q < 10; q++ {
			if _, ok := inj.At(SiteRestoreCorrupt, fn, 0); ok {
				n++
			}
		}
		return n
	}
	if got := count("a"); got != 2 {
		t.Fatalf("fn a fired %d times, want 2", got)
	}
	// The cap is per (site, function): another function gets its own budget.
	if got := count("b"); got != 2 {
		t.Fatalf("fn b fired %d times, want 2", got)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Sites: map[Site]Spec{"nope": {Rate: 0.5}}},
		{Sites: map[Site]Spec{SiteSlowRead: {Rate: -0.1}}},
		{Sites: map[Site]Spec{SiteSlowRead: {Rate: 1.5}}},
		{Sites: map[Site]Spec{SiteSlowRead: {Rate: 0.5, Stall: -1}}},
		{Sites: map[Site]Spec{SiteSlowRead: {Rate: 0.5, MaxFires: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated", i)
		}
		if _, err := New(p); err == nil {
			t.Errorf("New accepted plan %d", i)
		}
	}
	if err := UniformPlan(0.1, 1).Validate(); err != nil {
		t.Fatalf("uniform plan invalid: %v", err)
	}
	if UniformPlan(0, 1).Enabled() {
		t.Fatal("zero-rate uniform plan enabled")
	}
	if !UniformPlan(0.1, 1).Enabled() {
		t.Fatal("uniform plan not enabled")
	}
}

func TestLoadPlanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	body := `{"seed": 9, "sites": {"slow-read": {"rate": 0.5, "stall_ns": 1000000}, "slow-outage": {"rate": 0.1, "max_fires": 3}}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Fatalf("seed = %d", p.Seed)
	}
	if s := p.Sites[SiteSlowRead]; s.Rate != 0.5 || s.Stall != simtime.Millisecond {
		t.Fatalf("slow-read spec = %+v", s)
	}
	if s := p.Sites[SiteSlowOutage]; s.Rate != 0.1 || s.MaxFires != 3 {
		t.Fatalf("slow-outage spec = %+v", s)
	}

	// Unknown fields, unknown sites, bad rates and anything after the
	// plan's JSON value are rejected.
	for _, bad := range badPlans {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPlan(path); err == nil {
			t.Errorf("LoadPlan accepted %s", bad)
		}
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadPlan accepted a missing file")
	}
}

// badPlans are plans ParsePlan must reject: the last three hold a valid
// plan followed by trailing data, which the decoder alone would ignore.
var badPlans = []string{
	`{"seed": 1, "sites": {"slow-read": {"rate": 0.5, "typo": 1}}}`,
	`{"seed": 1, "sites": {"slow-reed": {"rate": 0.5}}}`,
	`{"seed": 1, "sites": {"slow-read": {"rate": 2}}}`,
	`{"seed":1,"sites":{}} garbage`,
	`{"seed":1,"sites":{}}}`,
	`{"seed":1,"sites":{}} {"seed":2,"sites":{"bogus-site":{"rate":7}}}`,
}

// FuzzParsePlan feeds ParsePlan arbitrary bytes: it must never panic, and
// a plan it accepts must validate and survive a marshal and parse round
// trip unchanged.
func FuzzParsePlan(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "faultplan.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, bad := range badPlans {
		f.Add([]byte(bad))
	}
	f.Add([]byte(`{"seed": 9, "sites": {"slow-read": {"rate": 0.5, "stall_ns": 1000000}, "slow-outage": {"rate": 0.1, "max_fires": 3}}}` + "\n\t "))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the plan: %+v -> %s -> %+v", p, out, q)
		}
	})
}

func TestSiteErrorWrapping(t *testing.T) {
	err := Errorf(SiteSlowOutage, "compress", ErrTierUnavailable)
	if !errors.Is(err, ErrTierUnavailable) {
		t.Fatal("errors.Is failed through SiteError")
	}
	var se *SiteError
	if !errors.As(err, &se) {
		t.Fatal("errors.As failed")
	}
	if se.Site != SiteSlowOutage || se.Function != "compress" {
		t.Fatalf("SiteError = %+v", se)
	}
	if SiteOf(err) != SiteSlowOutage {
		t.Fatalf("SiteOf = %q", SiteOf(err))
	}
	if SiteOf(errors.New("plain")) != "" {
		t.Fatal("SiteOf found a site in a plain error")
	}
	// Wrapping the SiteError further keeps the chain intact.
	outer := fmt.Errorf("platform: compress: %w", err)
	if !errors.Is(outer, ErrTierUnavailable) || SiteOf(outer) != SiteSlowOutage {
		t.Fatal("wrap chain broken by outer fmt.Errorf")
	}
}

func TestRetryable(t *testing.T) {
	if !Retryable(Errorf(SiteSlowOutage, "f", ErrTierUnavailable)) {
		t.Fatal("outage not retryable")
	}
	if Retryable(Errorf(SiteProfileStale, "f", ErrProfileStale)) {
		t.Fatal("stale profile retryable")
	}
	if Retryable(nil) {
		t.Fatal("nil retryable")
	}
}

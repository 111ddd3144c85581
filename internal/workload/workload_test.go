package workload

import (
	"testing"

	"toss/internal/guest"
	"toss/internal/microvm"
	"toss/internal/simtime"
)

func TestLevelString(t *testing.T) {
	want := map[Level]string{I: "I", II: "II", III: "III", IV: "IV"}
	for lv, s := range want {
		if lv.String() != s {
			t.Errorf("Level %d String = %q, want %q", int(lv), lv.String(), s)
		}
		if !lv.Valid() {
			t.Errorf("Level %v not valid", lv)
		}
	}
	if Level(9).Valid() {
		t.Error("Level(9) valid")
	}
	if Level(9).String() == "" {
		t.Error("invalid level String empty")
	}
}

func TestRegistryMatchesTableI(t *testing.T) {
	reg := Registry()
	if len(reg) != 10 {
		t.Fatalf("registry has %d functions, want 10", len(reg))
	}
	wantMem := map[string]int64{
		"float_operation":  128 << 20,
		"pyaes":            128 << 20,
		"json_load_dump":   128 << 20,
		"compress":         256 << 20,
		"linpack":          256 << 20,
		"matmul":           256 << 20,
		"image_processing": 256 << 20,
		"pagerank":         1024 << 20,
		"lr_serving":       1024 << 20,
		"lr_training":      1024 << 20,
	}
	for _, s := range reg {
		if s == nil {
			t.Fatal("nil spec in registry")
		}
		if got := wantMem[s.Name]; got != s.MemBytes {
			t.Errorf("%s: MemBytes = %d, want %d", s.Name, s.MemBytes, got)
		}
		if s.Description == "" || s.InputType == "" {
			t.Errorf("%s: missing Table I metadata", s.Name)
		}
		for i, lbl := range s.InputLabels {
			if lbl == "" {
				t.Errorf("%s: empty input label %d", s.Name, i)
			}
		}
	}
	if len(Names()) != 10 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("matmul"); !ok {
		t.Error("matmul not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown function found")
	}
}

// mustSpec looks a Table I function up by name.
func mustSpec(t *testing.T, name string) *Spec {
	t.Helper()
	s, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown function %q", name)
	}
	return s
}

func TestTraceRejectsInvalidLevel(t *testing.T) {
	if _, err := mustSpec(t, "float_operation").Trace(Level(7), 1); err == nil {
		t.Error("invalid level accepted")
	}
}

func TestTraceDeterministicPerSeed(t *testing.T) {
	for _, s := range Registry() {
		a, err := s.Trace(II, 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := s.Trace(II, 42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("%s: same seed, different event counts", s.Name)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("%s: same seed diverged at event %d", s.Name, i)
			}
		}
	}
}

func TestTraceSeedJitterChangesPlacement(t *testing.T) {
	for _, s := range Registry() {
		a, err := s.Trace(IV, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := s.Trace(IV, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		same := len(a.Events) == len(b.Events)
		if same {
			for i := range a.Events {
				if a.Events[i] != b.Events[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical traces (no jitter)", s.Name)
		}
	}
}

func TestTracesFitGuestAndValidate(t *testing.T) {
	for _, s := range Registry() {
		layout, err := s.Layout()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, lv := range Levels {
			for seed := int64(1); seed <= 3; seed++ {
				tr, err := s.Trace(lv, seed)
				if err != nil {
					t.Fatalf("%s/%v: %v", s.Name, lv, err)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s/%v: %v", s.Name, lv, err)
				}
				for _, e := range tr.Events {
					if e.Region.End() > guest.PageID(layout.TotalPages) {
						t.Fatalf("%s/%v: event %v exceeds guest %d pages",
							s.Name, lv, e.Region, layout.TotalPages)
					}
				}
			}
		}
	}
}

func TestFootprintGrowsWithInput(t *testing.T) {
	// Table I: every function's memory footprint is monotone in the input
	// (strictly growing for the data-driven ones).
	for _, s := range Registry() {
		var prev int64 = -1
		for _, lv := range Levels {
			tr, err := s.Trace(lv, 7)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name, lv, err)
			}
			fp := tr.FootprintPages()
			if fp < prev {
				t.Errorf("%s: footprint shrank from %d to %d pages at %v", s.Name, prev, fp, lv)
			}
			prev = fp
		}
	}
}

func TestFootprintScales(t *testing.T) {
	// Spot-check absolute footprints: compress IV streams ~82+41 MB, so
	// >= 120 MB touched; float_operation stays tiny (< 40 MB incl. runtime).
	pageRank := mustSpec(t, "pagerank")
	tr, err := mustSpec(t, "compress").Trace(IV, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.FootprintPages() * guest.PageSize; got < 120<<20 {
		t.Errorf("compress IV footprint = %d MB, want >= 120 MB", got>>20)
	}
	tr, err = mustSpec(t, "float_operation").Trace(IV, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.FootprintPages() * guest.PageSize; got > 40<<20 {
		t.Errorf("float_operation IV footprint = %d MB, want <= 40 MB", got>>20)
	}
	// pagerank IV must fill most of its 1 GiB guest.
	tr, err = pageRank.Trace(IV, 3)
	if err != nil {
		t.Fatal(err)
	}
	layout, _ := pageRank.Layout()
	share := float64(tr.FootprintPages()) / float64(layout.TotalPages)
	if share < 0.70 || share > 0.98 {
		t.Errorf("pagerank IV touches %.0f%% of guest, want 70-98%%", share*100)
	}
}

// runOn executes a trace fully resident under a placement and returns exec time.
func runOn(t *testing.T, s *Spec, lv Level, seed int64, slow []guest.Region) simtime.Duration {
	t.Helper()
	layout, err := s.Layout()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace(lv, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := microvm.NewResident(microvm.DefaultConfig(), layout, slow, 1)
	res, err := m.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res.Exec
}

func TestFullSlowSlowdownShapes(t *testing.T) {
	// Fig. 2's qualitative shape: compute-bound functions suffer little
	// when fully offloaded; pagerank suffers the most.
	slowdown := func(s *Spec) float64 {
		layout, _ := s.Layout()
		fast := runOn(t, s, IV, 5, nil)
		slow := runOn(t, s, IV, 5, []guest.Region{{Start: 0, Pages: layout.TotalPages}})
		return float64(slow) / float64(fast)
	}
	cheap := slowdown(mustSpec(t, "compress"))
	if cheap > 1.15 {
		t.Errorf("compress full-slow slowdown = %.2f, want <= 1.15", cheap)
	}
	pr := slowdown(mustSpec(t, "pagerank"))
	if pr < 1.8 {
		t.Errorf("pagerank full-slow slowdown = %.2f, want >= 1.8", pr)
	}
	if pr <= cheap {
		t.Error("pagerank not more tier-sensitive than compress")
	}
}

func TestExecutionTimesPlausible(t *testing.T) {
	// All functions at input IV should execute within the serverless window
	// the paper cites (most functions < 10 s, none < 1 ms at input IV).
	for _, s := range Registry() {
		exec := runOn(t, s, IV, 9, nil)
		if exec < simtime.Millisecond {
			t.Errorf("%s IV exec = %v, implausibly fast", s.Name, exec)
		}
		if exec > 30*simtime.Second {
			t.Errorf("%s IV exec = %v, implausibly slow", s.Name, exec)
		}
	}
}

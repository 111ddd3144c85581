package experiments

import (
	"hash/fnv"
	"testing"

	"toss/internal/fault"
)

// reapFaultPlanDigest is the FNV-64a digest of the REAP experiments'
// renderings under examples/faultplan.json: a change to where or how often
// REAP and FaaSnap ask the prefetch site moves it.
const reapFaultPlanDigest uint64 = 0x3f38558f2e22cac5

// TestREAPTablesUnderFaultPlan renders every experiment that serves REAP or
// FaaSnap (fig3, fig7, fig8, fig9, ext6) in `tossctl all` order on one suite
// carrying the example fault plan, as `tossctl -faults` does. The injector's
// sequence counters are shared by the five, so an extra or a missing fault
// query in one experiment moves the firings every later one sees; the five
// render twice, so every experiment is also later than every other (ext6's
// few prefetch queries alone rarely fire at this plan's 2%).
func TestREAPTablesUnderFaultPlan(t *testing.T) {
	plan, err := fault.LoadPlan("../../examples/faultplan.json")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	s := fastSuite()
	s.Core.VM.Faults = inj
	h := fnv.New64a()
	for pass := 0; pass < 2; pass++ {
		for _, id := range []string{"fig3", "fig7", "fig8", "fig9", "ext6"} {
			tab, err := s.Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			h.Write([]byte(renderAll(t, tab)))
		}
	}
	if got := h.Sum64(); got != reapFaultPlanDigest {
		t.Errorf("digest %#016x, want %#016x", got, reapFaultPlanDigest)
	}
	if inj.Counts()[fault.SitePrefetch] == 0 {
		t.Error("no prefetch fault fired: the plan no longer reaches REAP's restore")
	}
}

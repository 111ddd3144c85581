package mem

import (
	"testing"

	"toss/internal/access"
)

func TestPresetsWellFormed(t *testing.T) {
	ps := Presets()
	if len(ps) < 4 {
		t.Fatalf("only %d presets", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" {
			t.Error("unnamed preset")
		}
		if seen[p.Name] {
			t.Errorf("duplicate preset %q", p.Name)
		}
		seen[p.Name] = true
		if p.CostRatio < 1 {
			t.Errorf("%s: cost ratio %v < 1", p.Name, p.CostRatio)
		}
		if err := p.Mem.Validate(); err != nil || p.Mem.Levels() != 2 ||
			p.Mem.Tiers[Fast].Name != "fast" || p.Mem.Tiers[Slow].Name != "slow" {
			t.Errorf("%s: not a fast/slow pair: %+v (%v)", p.Name, p.Mem.Tiers, err)
		}
		// Slow tier must actually be slower for every access class.
		for _, pat := range []access.Pattern{access.Sequential, access.Random} {
			for _, k := range []access.Kind{access.Read, access.Write} {
				f := p.Mem.LineCost(Fast, pat, k, 1)
				s := p.Mem.LineCost(Slow, pat, k, 1)
				if s <= f {
					t.Errorf("%s: slow %v/%v (%v) not above fast (%v)", p.Name, pat, k, s, f)
				}
			}
		}
	}
}

func TestPresetLatencyOrdering(t *testing.T) {
	// Random-read gap ordering across technologies: cxl < optane < nvme.
	gap := func(name string) float64 {
		for _, p := range Presets() {
			if p.Name == name {
				return p.Mem.LineCost(Slow, access.Random, access.Read, 1) /
					p.Mem.LineCost(Fast, access.Random, access.Read, 1)
			}
		}
		t.Fatalf("missing preset %s", name)
		return 0
	}
	cxl, optane, nvme := gap("dram+cxl"), gap("dram+optane"), gap("dram+nvme")
	if !(cxl < optane && optane < nvme) {
		t.Errorf("gap ordering wrong: cxl %v, optane %v, nvme %v", cxl, optane, nvme)
	}
}

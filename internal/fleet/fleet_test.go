package fleet

import (
	"testing"
)

func TestHostSpecs(t *testing.T) {
	if err := PaperHost().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DRAMOnlyHost().Validate(); err != nil {
		t.Fatal(err)
	}
	if (HostSpec{FastBytes: 0}).Validate() == nil {
		t.Error("zero DRAM accepted")
	}
	if (HostSpec{FastBytes: 1, SlowBytes: -1}).Validate() == nil {
		t.Error("negative slow accepted")
	}
}

func TestMaxResident(t *testing.T) {
	h := HostSpec{FastBytes: 100, SlowBytes: 1000}
	cases := []struct {
		vm   VMFootprint
		want int64
	}{
		{VMFootprint{FastBytes: 10, SlowBytes: 0}, 10},
		{VMFootprint{FastBytes: 0, SlowBytes: 100}, 10},
		{VMFootprint{FastBytes: 10, SlowBytes: 100}, 10},
		{VMFootprint{FastBytes: 50, SlowBytes: 100}, 2}, // DRAM-bound
		{VMFootprint{FastBytes: 10, SlowBytes: 500}, 2}, // slow-bound
		{VMFootprint{FastBytes: 0, SlowBytes: 0}, 0},    // degenerate
		{VMFootprint{FastBytes: 200, SlowBytes: 0}, 0},  // does not fit
	}
	for _, c := range cases {
		if got := h.MaxResident(c.vm); got != c.want {
			t.Errorf("MaxResident(%+v) = %d, want %d", c.vm, got, c.want)
		}
	}
}

func TestDensityGainPaperShape(t *testing.T) {
	// A 1 GiB-guest function with 92% offloaded: tiered host holds many
	// more copies than the DRAM-only host.
	dramVM := VMFootprint{FastBytes: 1 << 30}
	tieredVM := VMFootprint{FastBytes: 82 << 20, SlowBytes: 942 << 20}
	gain := DensityGain(PaperHost(), DRAMOnlyHost(), tieredVM, dramVM)
	// DRAM-only: 96 copies. Tiered: min(96G/82M=1198, 768G/942M=834) = 834.
	if gain < 8 {
		t.Errorf("density gain = %.1f, want >= 8 for a 92%%-offloaded VM", gain)
	}
	// Zero-capacity baseline guard.
	if got := DensityGain(PaperHost(), HostSpec{FastBytes: 1}, tieredVM, dramVM); got != 0 {
		t.Errorf("gain with unusable DRAM host = %v", got)
	}
}

func TestHosts(t *testing.T) {
	cases := []struct {
		name string
		n    int
		want int
	}{
		{"zero", 0, 0},
		{"negative", -3, 0},
		{"one", 1, 1},
		{"fleet", 5, 5},
	}
	for _, tc := range cases {
		got := PaperHost().Hosts(tc.n)
		if len(got) != tc.want {
			t.Errorf("%s: Hosts(%d) returned %d specs, want %d", tc.name, tc.n, len(got), tc.want)
			continue
		}
		for i, h := range got {
			if h != PaperHost() {
				t.Errorf("%s: Hosts(%d)[%d] = %+v, want the receiver spec", tc.name, tc.n, i, h)
			}
		}
	}
}

func TestValidateFleet(t *testing.T) {
	cases := []struct {
		name  string
		hosts []HostSpec
		ok    bool
	}{
		{"empty", nil, false},
		{"single paper host", PaperHost().Hosts(1), true},
		{"homogeneous tiered", PaperHost().Hosts(4), true},
		{"homogeneous dram-only", DRAMOnlyHost().Hosts(3), true},
		{"mixed tiered and dram-only", []HostSpec{PaperHost(), DRAMOnlyHost(), PaperHost()}, true},
		{"one host without DRAM", []HostSpec{PaperHost(), {FastBytes: 0, SlowBytes: 768 << 30}}, false},
		{"one host with negative slow tier", []HostSpec{{FastBytes: 96 << 30, SlowBytes: -1}, PaperHost()}, false},
	}
	for _, tc := range cases {
		err := ValidateFleet(tc.hosts)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

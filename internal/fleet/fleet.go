// Package fleet quantifies the paper's economic motivation at host
// granularity: DRAM is 40-50% of server cost (§I, §III), so a platform that
// keeps 92% of every warm VM in the cheap tier can hold far more warm VMs
// per host — or buy far less DRAM per host — than a DRAM-only platform.
// The packing model is deliberately simple: per-tier byte capacities, and a
// host keeps as many copies of one VM warm as its tightest tier holds
// (MaxResident). It places nothing; routing VMs onto hosts is the cluster
// simulator's job.
package fleet

import (
	"fmt"
)

// HostSpec is one server's per-tier memory capacity.
type HostSpec struct {
	// FastBytes is the DRAM capacity.
	FastBytes int64
	// SlowBytes is the slow-tier capacity (0 for a DRAM-only host).
	SlowBytes int64
}

// PaperHost returns the paper's platform: 96 GB DDR4 + 768 GB Optane PMem.
func PaperHost() HostSpec {
	return HostSpec{FastBytes: 96 << 30, SlowBytes: 768 << 30}
}

// DRAMOnlyHost returns the same server without the slow tier.
func DRAMOnlyHost() HostSpec {
	return HostSpec{FastBytes: 96 << 30}
}

// Validate checks the spec.
func (h HostSpec) Validate() error {
	if h.FastBytes <= 0 {
		return fmt.Errorf("fleet: non-positive DRAM capacity")
	}
	if h.SlowBytes < 0 {
		return fmt.Errorf("fleet: negative slow-tier capacity")
	}
	return nil
}

// Hosts returns n copies of the spec — a homogeneous fleet for the cluster
// simulator.
func (h HostSpec) Hosts(n int) []HostSpec {
	if n <= 0 {
		return nil
	}
	out := make([]HostSpec, n)
	for i := range out {
		out[i] = h
	}
	return out
}

// ValidateFleet checks a (possibly heterogeneous) fleet: at least one host,
// and every spec valid on its own (HostSpec.Validate). Mixed tiered and
// DRAM-only fleets are legal; the cluster router is what has to cope with
// them.
func ValidateFleet(hosts []HostSpec) error {
	if len(hosts) == 0 {
		return fmt.Errorf("fleet: empty fleet")
	}
	for i, h := range hosts {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("fleet: host %d: %w", i, err)
		}
	}
	return nil
}

// VMFootprint is one warm microVM's resident memory per tier.
type VMFootprint struct {
	Function  string
	FastBytes int64
	SlowBytes int64
}

// MaxResident returns how many copies of one VM the host can keep warm
// simultaneously — the binding constraint is whichever tier fills first.
func (h HostSpec) MaxResident(vm VMFootprint) int64 {
	if vm.FastBytes <= 0 && vm.SlowBytes <= 0 {
		return 0
	}
	limit := int64(1<<62 - 1)
	if vm.FastBytes > 0 {
		limit = h.FastBytes / vm.FastBytes
	}
	if vm.SlowBytes > 0 {
		if s := h.SlowBytes / vm.SlowBytes; s < limit {
			limit = s
		}
	}
	return limit
}

// DensityGain returns how many times more copies of a VM a tiered host
// holds versus a DRAM-only host, given the VM's tiered and DRAM-only
// footprints.
func DensityGain(tieredHost, dramHost HostSpec, tieredVM, dramVM VMFootprint) float64 {
	dram := dramHost.MaxResident(dramVM)
	if dram == 0 {
		return 0
	}
	return float64(tieredHost.MaxResident(tieredVM)) / float64(dram)
}

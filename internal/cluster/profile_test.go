package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"toss/internal/sched"
	"toss/internal/workload"
)

// TestProfileMeasures runs the real measurement path (a platform.Function
// over the microVM machinery) for one function under TOSS and DRAM and
// checks the profile shapes: steady state reached, tiered footprints for
// TOSS, all-fast for DRAM, warm execution never above cold end-to-end cost,
// and byte-identical numbers on re-measurement.
func TestProfileMeasures(t *testing.T) {
	base := sched.DefaultConfig() // ConvergenceWindow 12, like the suite

	tossCfg := base
	tossCfg.Mechanism = sched.MechTOSS
	toss, err := Profile(tossCfg, []string{"json_load_dump"})
	if err != nil {
		t.Fatal(err)
	}
	p := toss["json_load_dump"]
	if p.Warmups == 0 {
		t.Error("TOSS profile needed no warm-ups — convergence cannot be instant")
	}
	// The optimizer may legally place *all* pages in the slow tier when
	// the slowdown stays acceptable, so only the slow side is guaranteed.
	if p.SlowPages <= 0 {
		t.Errorf("TOSS warm footprint (%d fast, %d slow) keeps nothing in the slow tier", p.FastPages, p.SlowPages)
	}
	if p.SnapshotBytes <= 0 {
		t.Error("zero snapshot size")
	}
	for lv := 0; lv < 4; lv++ {
		if p.ColdSetup[lv] <= 0 || p.ColdExec[lv] <= 0 || p.WarmExec[lv] <= 0 {
			t.Fatalf("level %d has non-positive costs: %+v", lv, p)
		}
		if p.WarmExec[lv] >= p.ColdSetup[lv]+p.ColdExec[lv] {
			t.Errorf("level %d warm exec %v not below cold setup+exec %v",
				lv, p.WarmExec[lv], p.ColdSetup[lv]+p.ColdExec[lv])
		}
	}

	dramCfg := base
	dramCfg.Mechanism = sched.MechDRAM
	dram, err := Profile(dramCfg, []string{"json_load_dump"})
	if err != nil {
		t.Fatal(err)
	}
	d := dram["json_load_dump"]
	if d.SlowPages != 0 {
		t.Errorf("DRAM warm footprint has %d slow pages; must be all-fast", d.SlowPages)
	}
	if d.FastPages <= 0 {
		t.Error("DRAM warm footprint empty")
	}

	// Profiles must be reproducible from the config alone.
	again, err := Profile(tossCfg, []string{"json_load_dump"})
	if err != nil {
		t.Fatal(err)
	}
	if again["json_load_dump"] != p {
		t.Errorf("re-measured TOSS profile differs:\n first %+v\nsecond %+v", p, again["json_load_dump"])
	}
}

// profileDigestGolden pins every field of every fault-free profile that
// Profile measures for the four mechanisms over all ten functions.
const profileDigestGolden uint64 = 0x13b9acb4e0506752

// TestProfileDigestGolden profiles every function under each mechanism and
// hashes the profiles with FNV-64a, so a change to any mechanism's cold,
// warm or footprint path that moves a profile fails here by digest.
func TestProfileDigestGolden(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	fns := workload.Names()
	for _, mech := range []sched.Mechanism{sched.MechTOSS, sched.MechREAP, sched.MechDRAM, sched.MechFaaSnap} {
		cfg := sched.DefaultConfig()
		cfg.Mechanism = mech
		profiles, err := Profile(cfg, fns)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range fns {
			p := profiles[fn]
			put(int64(len(p.Name)))
			h.Write([]byte(p.Name))
			for lv := range p.ColdSetup {
				put(int64(p.ColdSetup[lv]), int64(p.ColdExec[lv]), int64(p.WarmExec[lv]))
			}
			put(p.FastPages, p.SlowPages, p.SnapshotBytes, int64(p.Warmups))
		}
	}
	if got := h.Sum64(); got != profileDigestGolden {
		t.Errorf("profile digest = %#016x, want %#016x", got, profileDigestGolden)
	}
}

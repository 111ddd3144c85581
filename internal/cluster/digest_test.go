package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"toss/internal/simtime"
	"toss/internal/workload"
	"toss/internal/xray"
)

// clusterDigestGolden pins every output of the event core that a binary
// reads: per-invocation records, the completion feed, attribution budgets,
// router and autoscaler decisions, the burn tracker and per-node counters,
// over every routing policy on two bursty arrival shapes with the
// autoscaler off and on.
const clusterDigestGolden uint64 = 0xac6802ff278697f6

// TestClusterDigestGolden streams seeded arrivals through RunStream with an
// xray collector attached and hashes the run's outputs with FNV-64a, so a
// change to the event loop's bookkeeping that moves any decision or latency
// fails here by digest.
func TestClusterDigestGolden(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	str := func(s string) {
		put(int64(len(s)))
		h.Write([]byte(s))
	}
	flt := func(f float64) { put(int64(math.Float64bits(f))) }
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}

	for _, policy := range Policies() {
		for _, proc := range []workload.Process{workload.ProcFlash, workload.ProcDiurnalFlash} {
			for _, scale := range []bool{false, true} {
				cfg := testConfig(3, policy)
				if scale {
					cfg.Autoscale = Autoscaler{Enabled: true, Tick: 2 * simtime.Second, Min: 2, Max: 8}
				}
				col := &xray.Collector{}
				cfg.XRay = col
				src, err := workload.NewStream(workload.ArrivalsConfig{
					Process:   proc,
					Horizon:   60 * simtime.Second,
					MeanIAT:   25 * simtime.Millisecond,
					Functions: testFns,
					Seed:      42,
				})
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(cfg, testProfiles(testFns...))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := c.RunStream(src)
				if err != nil {
					t.Fatal(err)
				}

				recs := &rep.Records
				put(int64(recs.Len()))
				for i := 0; i < recs.Len(); i++ {
					str(recs.Function(i))
					put(int64(recs.Level(i)), int64(recs.Arrival(i)), int64(recs.Latency(i)), b2i(recs.Cold(i)))
				}
				put(int64(recs.Len()))
				for k := 0; k < recs.Len(); k++ {
					i := recs.Completed(k)
					str(recs.Function(i))
					put(int64(recs.Arrival(i)+recs.Latency(i)), int64(recs.Latency(i)), int64(recs.Level(i)), b2i(recs.Cold(i)))
				}
				buds := col.Drain()
				put(int64(len(buds)))
				for _, b := range buds {
					str(b.Label)
					put(int64(len(b.Segments)))
					for _, s := range b.Segments {
						str(s.ID)
						put(int64(s.Dur))
					}
					put(int64(len(b.Marks)))
					for _, m := range b.Marks {
						str(m.ID)
						put(m.N)
					}
					put(int64(b.Recorded()))
				}
				r := rep.Router
				put(r.Decisions, r.AffinityHits, r.Spills, r.Sheds, int64(len(r.PerNode)))
				for _, pn := range r.PerNode {
					str(pn.Node)
					put(pn.Decisions, pn.AffinityHits, pn.Spills, pn.Sheds)
				}
				put(int64(len(rep.ScaleEvents)))
				for _, ev := range rep.ScaleEvents {
					str(ev.Action)
					str(ev.Node)
					put(int64(ev.At), int64(ev.Fleet))
					flt(ev.Util)
					flt(ev.Burn)
				}
				str(rep.Burn.Summary())
				total, bad := rep.Burn.Totals()
				put(total, bad, int64(rep.PeakNodes), int64(rep.FinalNodes))
				put(int64(rep.Horizon), rep.Pulls, int64(rep.PullTime), int64(rep.BusyCoreTime))
				put(int64(len(rep.Nodes)))
				for _, ns := range rep.Nodes {
					str(ns.ID)
					put(ns.Invocations, ns.ColdStarts, int64(ns.Busy), b2i(ns.Final),
						ns.Cache.Hits, ns.Cache.Misses, ns.Cache.Evictions, ns.Cache.Rejected)
				}
			}
		}
	}
	if got := h.Sum64(); got != clusterDigestGolden {
		t.Errorf("cluster digest = %#016x, want %#016x", got, clusterDigestGolden)
	}
}

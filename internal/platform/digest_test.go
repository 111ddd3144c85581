package platform

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/workload"
	"toss/internal/xray"
)

// replayDigestGolden pins every record Replay produces in each of the five
// modes under two uniform fault plans, and each function's stats after the
// replay: a change to any serving path, its retry and degradation sequence,
// or its accounting moves it. It was re-recorded when REAP's and FaaSnap's
// first invocation began charging its snapshot capture to setup.
const replayDigestGolden uint64 = 0xd5afdb21b29a6e41

// digestWriter hashes fixed-width integers and length-prefixed strings.
type digestWriter struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digestWriter) num(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digestWriter) str(s string) {
	d.num(int64(len(s)))
	d.h.Write([]byte(s))
}

// TestReplayDigestGolden replays one seeded request trace over three
// functions in every mode, with an xray collector, under a 10% and a 50%
// uniform fault plan, and hashes each record's outcome and attribution
// budget with FNV-64a. At 10% only the retry, prefetch, corruption and
// stale-profile paths fire; at 50% the slow-tier outage also outlives the
// retries, so every degradation policy is covered.
func TestReplayDigestGolden(t *testing.T) {
	fns := []string{"pyaes", "json_load_dump", "compress"}
	rng := rand.New(rand.NewSource(23))
	reqs := make([]Request, 300)
	for i := range reqs {
		reqs[i] = Request{
			Function: fns[rng.Intn(len(fns))],
			Level:    workload.Levels[rng.Intn(len(workload.Levels))],
			Seed:     rng.Int63n(1 << 20),
		}
	}
	d := &digestWriter{h: fnv.New64a()}
	for _, rate := range []float64{0.1, 0.5} {
		for _, mode := range []Mode{ModeTOSS, ModeREAP, ModeFaaSnap, ModeDRAM, ModeSlow} {
			digestReplay(t, d, fns, reqs, mode, fault.UniformPlan(rate, 1))
		}
	}
	if got := d.h.Sum64(); got != replayDigestGolden {
		t.Errorf("replay digest = %#016x, want %#016x", got, replayDigestGolden)
	}
}

// digestReplay replays reqs over fns in one mode under plan and writes every
// record, then every function's stats, to d.
func digestReplay(t *testing.T, d *digestWriter, fns []string, reqs []Request, mode Mode, plan fault.Plan) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = 3
	inj, err := fault.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VM.Faults = inj
	cfg.VM.XRay = xray.NewCollector()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range fns {
		mustRegister(t, p, fn, mode)
	}
	for _, rec := range p.Replay(reqs, 4) {
		d.num(int64(rec.Mode))
		d.num(int64(rec.Phase))
		d.num(int64(rec.Setup))
		d.num(int64(rec.Exec))
		d.num(rec.Faults)
		d.num(int64(rec.Retries))
		d.str(rec.Degraded)
		d.str(rec.FaultSite)
		if rec.Err != nil {
			d.num(1)
		} else {
			d.num(0)
		}
		b := rec.XRay
		if b == nil {
			d.num(-1)
			continue
		}
		d.num(int64(len(b.Segments)))
		for _, seg := range b.Segments {
			d.str(seg.ID)
			d.num(int64(seg.Dur))
		}
		d.num(int64(len(b.Marks)))
		for _, m := range b.Marks {
			d.str(m.ID)
			d.num(m.N)
		}
		d.num(int64(b.Recorded()))
	}
	for _, fn := range fns {
		st, err := p.Stats(fn)
		if err != nil {
			t.Fatal(err)
		}
		d.num(st.Invocations)
		d.num(int64(st.TotalSetup))
		d.num(int64(st.TotalExec))
		d.num(int64(st.MaxExec))
		d.num(st.MajorFaults)
		d.num(int64(st.Phase))
		d.num(int64(math.Float64bits(st.NormCost)))
		d.num(int64(math.Float64bits(st.SlowShare)))
	}
}

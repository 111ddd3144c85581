package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// traceDigestGolden pins the exact bytes of every compiled trace in the
// grid below. It was computed before the per-trace rngs moved off
// math/rand's own source, so it fails if a seeding or generator change
// moves a single event of a single trace.
const traceDigestGolden uint64 = 0xe0c6cf113e5bff42

// traceDigest hashes every field of every event of the traces for all ten
// functions × four levels × the given seeds with FNV-64a, prefixing each
// trace with its event count so traces cannot run into one another.
func traceDigest(t testing.TB, seeds []int64) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range Registry() {
		for _, lv := range Levels {
			for _, seed := range seeds {
				tr, err := s.Trace(lv, seed)
				if err != nil {
					t.Fatalf("%s/%v/%d: %v", s.Name, lv, seed, err)
				}
				put(uint64(len(tr.Events)))
				for _, e := range tr.Events {
					put(uint64(e.Region.Start))
					put(uint64(e.Region.Pages))
					put(uint64(e.LinesPerPage))
					put(uint64(e.Repeat))
					put(uint64(e.Kind))
					put(uint64(e.Pattern))
					put(math.Float64bits(e.HitRatio))
					put(math.Float64bits(e.CPUPerLine))
				}
			}
		}
	}
	return h.Sum64()
}

func TestTraceDigestGolden(t *testing.T) {
	got := traceDigest(t, []int64{0, 1, 4242, 1 << 40})
	if got != traceDigestGolden {
		t.Errorf("trace digest = %#016x, want %#016x", got, traceDigestGolden)
	}
}

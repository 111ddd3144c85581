package main

import (
	"runtime/debug"
	"slices"
	"time"
)

// calibrationNominal is calibrate's typical time on the reference host (a
// shared 2-core x86 VM). Host times are reported at that host's speed.
const calibrationNominal = 35 * time.Millisecond

// The calibration kernel's buffers, allocated once so that calibrate itself
// allocates nothing.
var (
	calibrationBuf = make([]uint64, 1<<20)
	calibrationMap = make(map[uint64]uint64, 1<<16)
	calibrationSum uint64 // keeps the kernel's result live
)

// calibrate runs a fixed CPU and memory kernel that shares no code with the
// simulator and returns how long it took. On a shared host, other tenants'
// load moves the speed of the whole machine by tens of percent over tens of
// seconds; timing the kernel right after each timed stretch measures that
// speed, so the benchmark can report host times at the reference host's
// speed while a change to the simulator still moves the stretch and not the
// kernel. The collector is off while it runs, so the simulator's heap does
// not bill it either.
func calibrate() time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	buf, m := calibrationBuf, calibrationMap
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	slices.Sort(buf[:1<<18])
	clear(m)
	for i := 0; i < 1<<16; i++ {
		m[buf[(i*7919)%len(buf)]&0xffff] += uint64(i)
	}
	calibrationSum += buf[1<<16] + uint64(len(m))
	return time.Since(t0)
}

// atReferenceSpeed scales a host time by calibrationNominal over the
// calibration time measured right after it.
func atReferenceSpeed(d, calib time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibrationNominal) / float64(calib))
}

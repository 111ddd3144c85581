// Package cliutil holds what cmd/faasim and cmd/tossctl share: the export
// file writer, the -cpuprofile/-memprofile pair, and the flag-interaction
// diagnostics. Both commands have flags that reshape the run loop in
// mutually incompatible ways; the messages that explain those conflicts
// follow one format so the README's flag-interaction table stays accurate
// as new flags (cluster mode's -nodes/-router/-arrival, for instance) join
// the set.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// WriteFile creates path and streams one export into it, returning the
// first error of the create, the write, or the close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Profiles is a running -cpuprofile/-memprofile pair.
type Profiles struct {
	cpu  *os.File
	heap string
}

// StartProfiles starts a CPU profile into cpuPath and arms a heap profile
// for heapPath; an empty path skips that profile. Stop ends both.
func StartProfiles(cpuPath, heapPath string) (*Profiles, error) {
	p := &Profiles{heap: heapPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.cpu = f
	}
	return p, nil
}

// Stop flushes the CPU profile and writes the heap profile after a GC,
// returning the first error.
func (p *Profiles) Stop() error {
	var err error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		err = p.cpu.Close()
	}
	if p.heap != "" {
		if herr := WriteFile(p.heap, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		}); err == nil {
			err = herr
		}
	}
	return err
}

// MutuallyExclusive renders the error for two flags that each take over the
// run loop and cannot compose.
//
//	faasim: -nodes and -trace are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)
func MutuallyExclusive(prog, a, b, why string) string {
	return fmt.Sprintf("%s: %s and %s are mutually exclusive (%s)", prog, a, b, why)
}

// OutOfRange renders the error for a flag value no run can mean: the flag,
// the values it takes, and the value given.
//
//	faasim: -slo-window must be positive (got 0s)
func OutOfRange(prog, flagName, want string, got any) string {
	return fmt.Sprintf("%s: %s must be %s (got %v)", prog, flagName, want, got)
}

// Requires renders the error for a flag that only means something alongside
// another one.
//
//	faasim: -router requires -nodes (cluster mode routes through the fleet simulator)
func Requires(prog, flagName, required, why string) string {
	return fmt.Sprintf("%s: %s requires %s (%s)", prog, flagName, required, why)
}

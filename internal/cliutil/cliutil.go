// Package cliutil holds what cmd/faasim and cmd/tossctl share: the export
// file writer and the flag-interaction diagnostics. Both commands have flags
// that reshape the run loop in mutually incompatible ways; the messages that
// explain those conflicts follow one format so the README's flag-interaction
// table stays accurate as new flags (cluster mode's -nodes/-router/-arrival,
// for instance) join the set.
package cliutil

import (
	"fmt"
	"io"
	"os"
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

// MutuallyExclusive renders the error for two flags that each take over the
// run loop and cannot compose.
//
//	faasim: -nodes and -trace are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)
func MutuallyExclusive(prog, a, b, why string) string {
	return fmt.Sprintf("%s: %s and %s are mutually exclusive (%s)", prog, a, b, why)
}

// Requires renders the error for a flag that only means something alongside
// another one.
//
//	faasim: -router requires -nodes (cluster mode routes through the fleet simulator)
func Requires(prog, flagName, required, why string) string {
	return fmt.Sprintf("%s: %s requires %s (%s)", prog, flagName, required, why)
}

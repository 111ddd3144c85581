// Package cliutil holds what cmd/faasim and cmd/tossctl share: the export
// file writer and the flag-interaction diagnostics. Both commands have
// flags that are only deterministic when invocations are serialized
// (tracing, the flight recorder, fault injection) and flags that reshape
// the run loop in mutually incompatible ways; the messages that explain
// those conflicts follow one format so the README's flag-interaction table
// stays accurate as new flags (cluster mode's -nodes/-router/-arrival, for
// instance) join the set.
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

// ConflictForced renders the soft-conflict warning: flagName needs a single
// worker, so the command downgraded -workers rather than exiting.
//
//	faasim: -trace conflicts with -workers 4 (span order is only deterministic serially); forcing -workers 1
func ConflictForced(prog, flagName string, workers int, why string) string {
	return fmt.Sprintf("%s: %s conflicts with -workers %d (%s); forcing -workers 1",
		prog, flagName, workers, why)
}

// ConflictFatal renders the hard-conflict error for a flag pair the command
// refuses to reconcile silently (the user explicitly asked for both).
//
//	faasim: -http conflicts with -workers 4 (the dashboard serves a deterministic timeline); drop -workers or pass -workers 1
func ConflictFatal(prog, flagName string, workers int, why string) string {
	return fmt.Sprintf("%s: %s conflicts with -workers %d (%s); drop -workers or pass -workers 1",
		prog, flagName, workers, why)
}

// MutuallyExclusive renders the error for two flags that each take over the
// run loop and cannot compose.
//
//	tossctl: -xray and -metrics are mutually exclusive (both re-shape the per-experiment run loop)
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

// WorkerForcer downgrades a -workers flag to 1 the first time a
// serial-only feature is enabled, warning exactly once — whichever feature
// tripped it first names itself, later calls are silent no-ops because the
// pool is already serial.
type WorkerForcer struct {
	// Prog is the command name prefixed to the warning (e.g. "faasim").
	Prog string
	// Workers points at the parsed -workers value; Force rewrites it.
	Workers *int
	// Err receives the one-line warning (typically os.Stderr).
	Err io.Writer

	warned bool
}

// Force serializes the pool on behalf of flagName. It returns true if this
// call printed the warning.
func (f *WorkerForcer) Force(flagName, why string) bool {
	if *f.Workers == 1 {
		return false
	}
	printed := false
	if !f.warned {
		fmt.Fprintln(f.Err, ConflictForced(f.Prog, flagName, *f.Workers, why))
		f.warned = true
		printed = true
	}
	*f.Workers = 1
	return printed
}

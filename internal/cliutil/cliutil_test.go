package cliutil

import "testing"

// The rendered strings are part of the CLI surface (the README's flag
// interaction table quotes them), so the tests pin exact bytes.

func TestMutuallyExclusive(t *testing.T) {
	got := MutuallyExclusive("faasim", "-nodes", "-trace", "the cluster simulator replays a modeled fleet, not the microVM platform")
	want := "faasim: -nodes and -trace are mutually exclusive (the cluster simulator replays a modeled fleet, not the microVM platform)"
	if got != want {
		t.Errorf("MutuallyExclusive:\n got %q\nwant %q", got, want)
	}
}

func TestOutOfRange(t *testing.T) {
	got := OutOfRange("tossctl", "-iters", "at least 1", 0)
	want := "tossctl: -iters must be at least 1 (got 0)"
	if got != want {
		t.Errorf("OutOfRange:\n got %q\nwant %q", got, want)
	}
}

func TestRequires(t *testing.T) {
	got := Requires("faasim", "-router", "-nodes", "cluster mode routes through the fleet simulator")
	want := "faasim: -router requires -nodes (cluster mode routes through the fleet simulator)"
	if got != want {
		t.Errorf("Requires:\n got %q\nwant %q", got, want)
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFixture scans a module with one unreachable exported function, one
// const nothing names, a method reached only through an interface, a method
// reached only through fmt.Stringer, and a nested module that calls and
// names code, and expects exactly the two findings.
func TestFixture(t *testing.T) {
	dead, err := scan("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	const want = "lib/lib.go:21 lib.Unused\nlib/lib.go:30 lib.Spare\n"
	var out bytes.Buffer
	if code := report(&out, dead, ""); code != 1 || out.String() != want {
		t.Fatalf("no allowlist: exit %d, output %q; want exit 1 and %q", code, out.String(), want)
	}
	for _, tc := range []struct {
		allow string
		code  int
		want  string
	}{
		{"# exceptions\nlib.Unused  kept as an example\nlib.Spare  kept too\n", 0, ""},
		{"lib.Unused  kept\nlib.Spare  kept\nlib.Gone  was deleted\n", 1, "allow.txt:3: lib.Gone "},
		{"lib.Unused\nlib.Spare  kept\n", 1, "allow.txt:1: lib.Unused "},
		{"lib.Unused  kept\n", 1, "lib/lib.go:30 lib.Spare\n"},
	} {
		out.Reset()
		if code := report(&out, dead, tc.allow); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("allowlist %q: exit %d, output %q; want exit %d and %q", tc.allow, code, out.String(), tc.code, tc.want)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFixture scans a module with one unreachable exported function, a
// method reached only through an interface, a method reached only through
// fmt.Stringer, and a nested module, and expects exactly the one finding.
func TestFixture(t *testing.T) {
	dead, err := scan("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0].at != "lib/lib.go:21" || dead[0].name != "lib.Unused" {
		t.Fatalf("findings = %+v, want only lib/lib.go:21 lib.Unused", dead)
	}
	var out bytes.Buffer
	if code := report(&out, dead, ""); code != 1 || out.String() != "lib/lib.go:21 lib.Unused\n" {
		t.Errorf("no allowlist: exit %d, output %q", code, out.String())
	}
	for _, tc := range []struct {
		allow string
		code  int
		want  string
	}{
		{"# exceptions\nlib.Unused  kept as an example\n", 0, ""},
		{"lib.Unused  kept\nlib.Gone  was deleted\n", 1, "allow.txt:2: lib.Gone "},
		{"lib.Unused\n", 1, "allow.txt:1: lib.Unused "},
	} {
		out.Reset()
		if code := report(&out, dead, tc.allow); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("allowlist %q: exit %d, output %q; want exit %d and %q", tc.allow, code, out.String(), tc.code, tc.want)
		}
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFixture scans a module with one unreachable exported function, one
// const nothing names, a method reached only through an interface, a method
// reached only through fmt.Stringer, a nested module that calls and names
// code, an internal package with one undocumented exported function, an
// interface with one implementation and one whose second implementation
// lies in the nested module, and expects exactly the four findings.
func TestFixture(t *testing.T) {
	dead, err := scan("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	const want = "internal/note/note.go:8 note.Undocumented has no doc comment\n" +
		"lib/lib.go:7 lib.Shape has one implementation, lib.Square\n" +
		"lib/lib.go:31 lib.Unused\nlib/lib.go:40 lib.Spare\n"
	var out bytes.Buffer
	if code := report(&out, dead, ""); code != 1 || out.String() != want {
		t.Fatalf("no allowlist: exit %d, output %q; want exit 1 and %q", code, out.String(), want)
	}
	const kept = "lib.Shape  a test fake is the second implementation\n"
	for _, tc := range []struct {
		allow string
		code  int
		want  string
	}{
		{"# exceptions\nlib.Unused  kept as an example\nlib.Spare  kept too\nnote.Undocumented  kept\n" + kept, 0, ""},
		{kept + "lib.Unused  kept\nlib.Spare  kept\nnote.Undocumented  kept\nlib.Gone  was deleted\n", 1, "allow.txt:5: lib.Gone "},
		{kept + "lib.Unused\nlib.Spare  kept\nnote.Undocumented  kept\n", 1, "allow.txt:2: lib.Unused "},
		{kept + "lib.Unused  kept\nnote.Undocumented  kept\n", 1, "lib/lib.go:40 lib.Spare\n"},
		{kept + "lib.Unused  kept\nlib.Spare  kept\n", 1, "internal/note/note.go:8 note.Undocumented has no doc comment\n"},
		{"lib.Shape\nlib.Unused  kept\nlib.Spare  kept\nnote.Undocumented  kept\n", 1, "allow.txt:1: lib.Shape "},
		{"lib.Unused  kept\nlib.Spare  kept\nnote.Undocumented  kept\n", 1, "lib/lib.go:7 lib.Shape has one implementation, lib.Square\n"},
	} {
		out.Reset()
		if code := report(&out, dead, tc.allow); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("allowlist %q: exit %d, output %q; want exit %d and %q", tc.allow, code, out.String(), tc.code, tc.want)
		}
	}
}

// TestDocsFixture checks the fixture's README citations: a method, an
// interface, a field, a type, a test and a test-file-only function resolve,
// spans that are not citations are skipped, and the deleted function,
// method and test are the three findings, which the allowlist can exempt.
func TestDocsFixture(t *testing.T) {
	stale, err := docs("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	const want = "README.md:4 lib.Gone\nREADME.md:5 lib.Square.Perimeter\nREADME.md:6 TestPerimeter\n"
	var out bytes.Buffer
	if code := report(&out, stale, ""); code != 1 || out.String() != want {
		t.Fatalf("no allowlist: exit %d, output %q; want exit 1 and %q", code, out.String(), want)
	}
	out.Reset()
	allow := "lib.Gone  deleted\nlib.Square.Perimeter  deleted\nTestPerimeter  deleted\n"
	if code := report(&out, stale, allow); code != 0 || out.Len() != 0 {
		t.Errorf("full allowlist: exit %d, output %q; want exit 0 and nothing", code, out.String())
	}
}

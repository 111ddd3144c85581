// Package note is the fixture's one internal package, the only kind the doc
// pass reads.
package note

// Documented is called by the binary.
func Documented() string { return "documented" }

func Undocumented() string { return "undocumented" }

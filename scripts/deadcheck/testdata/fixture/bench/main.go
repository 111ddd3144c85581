// Command bench is a nested module: it reaches code, and its own
// unreachable helper is not reported.
package main

import "fixture/lib"

func main() { _ = lib.BenchOnly() }

func helper() {}

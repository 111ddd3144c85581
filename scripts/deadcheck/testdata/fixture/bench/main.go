// Command bench is a nested module: it reaches and names code, and its own
// unreachable helper and unnamed const are not reported.
package main

import "fixture/lib"

func main() { _ = lib.BenchOnly() + lib.Sides }

func helper() {}

const spare = 0

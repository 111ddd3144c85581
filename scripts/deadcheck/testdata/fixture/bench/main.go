// Command bench is a nested module: it reaches and names code, implements
// lib.Source a second time, and its own unreachable helper and unnamed
// const are not reported.
package main

import "fixture/lib"

// zeros is the second lib.Source.
type zeros struct{}

func (zeros) Next() int { return 0 }

func main() {
	var src lib.Source = zeros{}
	_ = lib.BenchOnly() + lib.Sides + src.Next()
}

func helper() {}

const spare = 0

// Package lib holds one function no binary reaches, one const nothing
// names and one interface with a single implementation, beside methods
// that are reached only through an interface.
package lib

// Shape is called through by the binary; Square is its one implementation.
type Shape interface{ Area() float64 }

// Source is implemented twice: by Ticker and by the nested module.
type Source interface{ Next() int }

// Ticker is the module's own Source.
type Ticker struct{ n int }

// Next is reached only through Source.
func (t *Ticker) Next() int { t.n++; return t.n }

// Square is a Shape.
type Square struct{ Side float64 }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Name is printed by the binary.
type Name string

// String is reached only through fmt.Stringer, inside fmt.
func (n Name) String() string { return "name " + string(n) }

// Unused is called by nothing.
func Unused() int { return 1 }

// BenchOnly is called only from the nested module.
func BenchOnly() int { return 2 }

// Sides is named only by the nested module.
const Sides = 4

// Spare is named by nothing.
const Spare = 0

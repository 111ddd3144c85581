package lib

import "testing"

// Helper is declared only in a test file.
func Helper() float64 { return Square{Side: 3}.Area() }

func TestArea(t *testing.T) {
	if Helper() != 9 {
		t.Fatal("area of a 3-square is not 9")
	}
}

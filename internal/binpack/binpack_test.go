package binpack

import (
	"testing"
	"testing/quick"
)

func TestToConstantBinsBasic(t *testing.T) {
	weights := []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	bins, err := ToConstantBins(weights, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 3 {
		t.Fatalf("got %d bins, want 3", len(bins))
	}
	sums := Sums(weights, bins)
	// Total 55 over 3 bins: ideal ~18.3; greedy LPT gets within one item.
	for i, s := range sums {
		if s < 17 || s > 20 {
			t.Errorf("bin %d sum = %d, want near-balanced (17-20)", i, s)
		}
	}
	if Imbalance(sums) > 0.2 {
		t.Errorf("imbalance %v too high", Imbalance(sums))
	}
}

func TestToConstantBinsRejectsBadN(t *testing.T) {
	if _, err := ToConstantBins([]int64{1}, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestToConstantBinsMoreBinsThanItems(t *testing.T) {
	bins, err := ToConstantBins([]int64{5, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("got %d bins", len(bins))
	}
	var total int
	for _, b := range bins {
		total += len(b)
	}
	if total != 2 {
		t.Errorf("items assigned = %d, want 2", total)
	}
}

func TestToConstantBinsEmpty(t *testing.T) {
	bins, err := ToConstantBins(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 3 {
		t.Errorf("got %d bins", len(bins))
	}
}

func TestToConstantBinsDeterministic(t *testing.T) {
	w := []int64{7, 7, 7, 3, 3, 3, 1}
	a, _ := ToConstantBins(w, 3)
	b, _ := ToConstantBins(w, 3)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("non-deterministic bin sizes")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("non-deterministic assignment")
			}
		}
	}
}

func TestToConstantBinsOrderedHeaviestFirst(t *testing.T) {
	w := []int64{100, 1, 1}
	bins, _ := ToConstantBins(w, 3)
	sums := Sums(w, bins)
	for i := 1; i < len(sums); i++ {
		if sums[i] > sums[i-1] {
			t.Errorf("bins not ordered by descending sum: %v", sums)
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int64{10, 10, 10}); got != 0 {
		t.Errorf("balanced imbalance = %v", got)
	}
	if got := Imbalance([]int64{10, 5}); got != 0.5 {
		t.Errorf("imbalance = %v, want 0.5", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Errorf("empty imbalance = %v", got)
	}
	if got := Imbalance([]int64{0, 0}); got != 0 {
		t.Errorf("zero imbalance = %v", got)
	}
}

// Property: every item is assigned exactly once and weight is conserved.
func TestToConstantBinsPartitionProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		weights := make([]int64, len(raw))
		var total int64
		for i, w := range raw {
			weights[i] = int64(w)
			total += int64(w)
		}
		bins, err := ToConstantBins(weights, n)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		var sum int64
		for _, bin := range bins {
			for _, idx := range bin {
				if seen[idx] || idx < 0 || idx >= len(weights) {
					return false
				}
				seen[idx] = true
				sum += weights[idx]
			}
		}
		return len(seen) == len(weights) && sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: greedy LPT balance bound — max bin sum exceeds the ideal
// (total/n) by at most the largest item weight.
func TestToConstantBinsBalanceBoundProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(nRaw%8) + 1
		weights := make([]int64, len(raw))
		var total, maxW int64
		for i, w := range raw {
			weights[i] = int64(w)
			total += int64(w)
			if int64(w) > maxW {
				maxW = int64(w)
			}
		}
		bins, _ := ToConstantBins(weights, n)
		sums := Sums(weights, bins)
		ideal := total / int64(n)
		for _, s := range sums {
			if s > ideal+maxW {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Sums and Imbalance measure a split. ToConstantBins balances bins without
// them; the tests and the package example use them to check its balance.

// Sums returns each bin's total weight under the given assignment.
func Sums(weights []int64, bins [][]int) []int64 {
	out := make([]int64, len(bins))
	for i, bin := range bins {
		for _, idx := range bin {
			out[i] += weights[idx]
		}
	}
	return out
}

// Imbalance returns (max-min)/max over bin sums, a dimensionless measure of
// how unequal the split is; 0 means perfectly balanced. Returns 0 when all
// sums are zero.
func Imbalance(sums []int64) float64 {
	if len(sums) == 0 {
		return 0
	}
	min, max := sums[0], sums[0]
	for _, s := range sums[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max <= 0 {
		return 0
	}
	return float64(max-min) / float64(max)
}

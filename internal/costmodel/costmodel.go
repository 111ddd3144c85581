// Package costmodel implements the paper's memory cost formula (Eq. 1):
//
//	SDown * (MB_Fast*Cost_Fast + MB_Slow*Cost_Slow)
//
// where SDown is the slowdown relative to running entirely in the fast
// tier, MB is the per-tier memory size, and Cost is the per-MB price of
// each tier. Vendors price serverless memory in $/MB/ms, so the formula
// captures both levers: shifting MB from fast to slow lowers the $/MB
// part, while slowdown inflates the ms part proportionally.
//
// Costs are reported normalized to the all-fast, no-slowdown configuration,
// so 1.0 is today's DRAM-only bill and CostSlow/CostFast (0.4 at the
// paper's 2.5x tier cost ratio) is the optimum.
package costmodel

import (
	"fmt"
	"math"
)

// Model holds the per-MB (equivalently per-page) prices of the two tiers.
type Model struct {
	// CostFast is the fast tier's price per MB per unit time.
	CostFast float64
	// CostSlow is the slow tier's price per MB per unit time.
	CostSlow float64
}

// Default returns the paper's pricing: a 2.5x cost ratio between tiers,
// normalized so DRAM costs 1 per MB.
func Default() Model {
	return Model{CostFast: 1.0, CostSlow: 0.4}
}

// WithRatio returns a model with CostFast = 1 and the given fast:slow cost
// ratio (e.g. 2.5 gives CostSlow = 0.4). A ratio that yields no valid
// model (non-positive, non-finite, or below 1, which prices the slow tier
// above the fast one) is an error.
func WithRatio(ratio float64) (Model, error) {
	m := Model{CostFast: 1, CostSlow: 1 / ratio}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if math.IsNaN(m.CostFast) || math.IsNaN(m.CostSlow) || math.IsInf(m.CostFast, 0) || math.IsInf(m.CostSlow, 0) {
		return fmt.Errorf("costmodel: non-finite tier cost (%v, %v)", m.CostFast, m.CostSlow)
	}
	if m.CostFast <= 0 || m.CostSlow <= 0 {
		return fmt.Errorf("costmodel: non-positive tier cost (%v, %v)", m.CostFast, m.CostSlow)
	}
	if m.CostSlow > m.CostFast {
		return fmt.Errorf("costmodel: slow tier (%v) priced above fast tier (%v)", m.CostSlow, m.CostFast)
	}
	return nil
}

// Cost evaluates Eq. 1 directly in price units.
func (m Model) Cost(slowdown, fastMB, slowMB float64) float64 {
	return slowdown * (fastMB*m.CostFast + slowMB*m.CostSlow)
}

// Normalized evaluates Eq. 1 for a split of totalPages guest pages with
// slowPages in the slow tier, normalized to the all-fast no-slowdown cost.
// slowdown is the multiplicative execution slowdown (1.0 = no slowdown).
func (m Model) Normalized(slowdown float64, slowPages, totalPages int64) float64 {
	if totalPages <= 0 {
		return 0
	}
	fast := float64(totalPages - slowPages)
	slow := float64(slowPages)
	return m.Cost(slowdown, fast, slow) / m.Cost(1, float64(totalPages), 0)
}

// Optimal returns the best achievable normalized cost: everything in the
// slow tier with zero slowdown (0.4 under the default model).
func (m Model) Optimal() float64 { return m.CostSlow / m.CostFast }

// Ratio returns the fast:slow cost ratio.
func (m Model) Ratio() float64 { return m.CostFast / m.CostSlow }

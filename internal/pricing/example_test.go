package pricing_test

import (
	"fmt"

	"toss/internal/pricing"
	"toss/internal/simtime"
)

// Example prices one matmul-like invocation (256 MB bundle, 250 ms) under
// the DRAM-only Lambda-class plan and under TOSS's tiered plan with 92% of
// the bundle offloaded at a 6.5% slowdown (§III-D).
func Example() {
	plan, err := pricing.NewTiered(pricing.LambdaLike(), 2.5)
	if err != nil {
		panic(err)
	}
	mem := int64(256 << 20)
	exec := 250 * simtime.Millisecond
	dram := plan.Plan.Invocation(mem, exec)
	slow := int64(float64(mem) * 0.92)
	tiered := plan.Invocation(mem-slow, slow, exec.Scale(1.065))

	fmt.Printf("dram-only: $%.9f\n", dram)
	fmt.Printf("toss tier: $%.9f\n", tiered)
	fmt.Printf("saving: %.0f%%\n", (1-tiered/dram)*100)
	// Output:
	// dram-only: $0.000001042
	// toss tier: $0.000000498
	// saving: 52%
}

package core_test

import (
	"context"
	"fmt"
	"log"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// ExampleSimulator runs the paper's headline mechanism on a toy trace:
// four blocks of one 32KB chunk are touched (triggering promotion at
// the half-or-more threshold), then revisited on the large page.
func ExampleSimulator() {
	refs := []trace.Ref{
		{Addr: 0x0000, Kind: trace.Instr},
		{Addr: 0x1000, Kind: trace.Load},
		{Addr: 0x2000, Kind: trace.Load},
		{Addr: 0x3000, Kind: trace.Store}, // 4th block: chunk promotes
		{Addr: 0x0000, Kind: trace.Load},  // now a 32KB-page hit
		{Addr: 0x7000, Kind: trace.Load},  // untouched block, same large page
	}
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(100))
	sim := core.NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(8)})
	res, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		log.Fatal(err)
	}
	st := res.TLBs[0].Stats
	fmt.Printf("promotions: %d\n", res.PolicyStats.Promotions)
	fmt.Printf("misses: %d (small %d, large %d)\n",
		st.Misses(), st.MissesByClass[0], st.MissesByClass[1])
	fmt.Printf("large-page hits: %d\n", st.HitsByClass[1])
	// Output:
	// promotions: 1
	// misses: 4 (small 3, large 1)
	// large-page hits: 2
}

// ExampleMeasureStaticWSS computes the Section 4 metric for two page
// sizes over a toy stream: two distinct 4KB pages that share one 32KB
// page.
func ExampleMeasureStaticWSS() {
	refs := make([]trace.Ref, 0, 100)
	for i := 0; i < 50; i++ {
		refs = append(refs,
			trace.Ref{Addr: 0x0000, Kind: trace.Load},
			trace.Ref{Addr: 0x1000, Kind: trace.Load})
	}
	results, err := core.MeasureStaticWSS(context.Background(), trace.NewSliceReader(refs), 1000,
		addr.Size4K, addr.Size32K)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s pages: average working set %.0f KB\n", r.Scheme, r.AvgBytes/1024)
	}
	// Output:
	// 4KB pages: average working set 8 KB
	// 32KB pages: average working set 32 KB
}

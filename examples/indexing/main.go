// Indexing: the Section 2 design space, live.
//
// Part 1 reproduces the paper's Figure 2.1 thought experiment on a toy
// 16-bit address space: a direct-mapped 2-entry TLB indexed by the
// small page number smears one large page across both sets, while
// indexing by the large page number makes eight consecutive small pages
// collide in one set.
//
// Part 2 runs tomcatv — the paper's pathological program — against a
// 16-entry two-way TLB under all three indexing schemes plus a split
// TLB, showing the Table 5.1 anomaly: any scheme that indexes with the
// large-page bits thrashes, because tomcatv's seven arrays share those
// bits.
//
// Run with:
//
//	go run ./examples/indexing
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

func part1() {
	fmt.Println("== Figure 2.1: one 32KB page vs a small-page-indexed TLB ==")
	smallIx := tlb.MustNew(tlb.Config{Entries: 2, Ways: 1, Index: tlb.IndexSmall})
	large := policy.Page{Number: 0, Shift: addr.Shift32K}
	// Touch the large page at offsets 0 and 4KB: bit<12> differs, so the
	// small-page index sends the SAME page to BOTH sets.
	smallIx.Access(0x0000, large)
	smallIx.Access(0x1000, large)
	fmt.Printf("  small-page index: one 32KB page now occupies %d copies ->\n", smallIx.Invalidate(large))
	fmt.Println("  the large page is replicated; its reach is wasted (paper: \"negates the very reason\")")

	largeIx := tlb.MustNew(tlb.Config{Entries: 2, Ways: 1, Index: tlb.IndexLarge})
	misses := 0
	for round := 0; round < 4; round++ {
		for p := 0; p < 2; p++ { // two alternating small pages, same 32KB region
			va := addr.VA(p << addr.Shift4K)
			pg := policy.Page{Number: addr.Page(va, addr.Shift4K), Shift: addr.Shift4K}
			if !largeIx.Access(va, pg) {
				misses++
			}
		}
	}
	fmt.Printf("  large-page index: 2 alternating small pages, 8 accesses, %d misses (they share one set)\n\n", misses)
}

func part2() {
	fmt.Println("== tomcatv vs the three indexing schemes (16-entry, 4KB/32KB policy) ==")
	const refs = 2_000_000
	run := func(mk func() tlb.TLB) float64 {
		pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(refs / 8))
		sim := core.NewSimulator(pol, []tlb.TLB{mk()})
		res, err := sim.Run(context.Background(), workload.MustNew("tomcatv", refs))
		if err != nil {
			log.Fatal(err)
		}
		return res.TLBs[0].CPITLB
	}
	tbl := tableio.New("", "organization", "CPI_TLB")
	tbl.Row("2-way, small-page index (broken for large pages)",
		tableio.F(run(func() tlb.TLB { return twoWay(tlb.IndexSmall) }), 3))
	tbl.Row("2-way, large-page index",
		tableio.F(run(func() tlb.TLB { return twoWay(tlb.IndexLarge) }), 3))
	tbl.Row("2-way, exact index",
		tableio.F(run(func() tlb.TLB { return twoWay(tlb.IndexExact) }), 3))
	tbl.Row("split 12+4 (per-size TLBs)",
		tableio.F(run(func() tlb.TLB {
			sp, err := tlb.NewMultiSplit([]tlb.Config{{Entries: 12, Ways: 12}, {Entries: 4, Ways: 4}})
			if err != nil {
				log.Fatal(err)
			}
			return sp
		}), 3))
	tbl.Row("fully associative (Section 2.1 baseline)",
		tableio.F(run(func() tlb.TLB { return tlb.NewFullyAssoc(16) }), 3))
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  tomcatv's seven arrays share large-page-index bits: every set-associative")
	fmt.Println("  scheme that uses them thrashes; full associativity is immune (paper Section 5.2).")
}

func twoWay(ix tlb.IndexScheme) tlb.TLB {
	return tlb.MustNew(tlb.Config{Entries: 16, Ways: 2, Index: ix})
}

func main() {
	part1()
	part2()
}

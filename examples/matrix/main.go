// Matrix: the paper's headline scenario in detail. matrix300's column
// walk through matrix B touches a new 4KB page almost every reference,
// so a small TLB thrashes; 32KB pages map 8x more memory per entry, and
// the dynamic two-page policy recovers nearly all of that benefit while
// keeping the working set close to the 4KB footprint.
//
// This example sweeps page-size schemes across both a fully associative
// and a two-way set-associative TLB and prints the tradeoff (CPI_TLB vs
// average working-set size) that Sections 4 and 5 of the paper weigh.
//
// Run with:
//
//	go run ./examples/matrix
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
	"twopage/internal/wss"
)

const (
	refs = 3_000_000
	T    = refs / 8
)

func singleSize(size addr.PageSize) (cpiFA, cpi2W float64, avgWS float64) {
	sim := core.NewSimulator(policy.NewSingle(addr.MustPow2(size)), []tlb.TLB{
		tlb.NewFullyAssoc(16),
		tlb.MustNew(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact}),
	}, core.WithStaticWSS(T, addr.MustPow2(size)))
	res, err := sim.Run(context.Background(), workload.MustNew("matrix300", refs))
	if err != nil {
		log.Fatal(err)
	}
	return res.TLBs[0].CPITLB, res.TLBs[1].CPITLB, res.StaticWSS[0].AvgBytes
}

func twoSize() (cpiFA, cpi2W float64, avgWS float64, promos uint64) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	sim := core.NewSimulator(pol, []tlb.TLB{
		tlb.NewFullyAssoc(16),
		tlb.MustNew(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact}),
	}, core.WithWSS())
	res, err := sim.Run(context.Background(), workload.MustNew("matrix300", refs))
	if err != nil {
		log.Fatal(err)
	}
	return res.TLBs[0].CPITLB, res.TLBs[1].CPITLB, res.WSS.AvgBytes, res.PolicyStats.Promotions
}

func main() {
	tbl := tableio.New("matrix300: CPI_TLB vs memory cost (16-entry TLBs)",
		"scheme", "CPI (fully assoc)", "CPI (2-way exact)", "avg working set")
	var base float64
	for _, size := range []addr.PageSize{addr.Size4K, addr.Size8K, addr.Size32K} {
		fa, sa, ws := singleSize(size)
		if size == addr.Size4K {
			base = ws
		}
		tbl.Row(size.String(), tableio.F(fa, 3), tableio.F(sa, 3),
			fmt.Sprintf("%s (%.2fx)", wss.FormatBytes(ws), ws/base))
	}
	fa, sa, ws, promos := twoSize()
	tbl.Row("4KB/32KB", tableio.F(fa, 3), tableio.F(sa, 3),
		fmt.Sprintf("%s (%.2fx)", wss.FormatBytes(ws), ws/base))
	tbl.Note("two-page run performed %d chunk promotions (25-cycle miss penalty applied)", promos)
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Promotion: watch the Section 3.4 page-size assignment policy at work,
// end to end through the OS substrates.
//
// Part 1 drives the li workload through the dynamic policy and prints a
// timeline of promotions/demotions and the instantaneous working-set
// size of the two-page scheme.
//
// Part 2 runs the same stream through core's memory stage, which
// carries out each of the policy's decisions against a page table and
// a buddy allocator: a promotion allocates an aligned 32KB frame,
// copies the resident small pages and frees their frames — the real
// costs (copy bytes, walk cycles, external fragmentation) that the
// paper folds into its 25% miss-penalty increase.
//
// Run with:
//
//	go run ./examples/promotion
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"

	"twopage/internal/core"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

func main() {
	const refs = 1_000_000
	const T = refs / 8

	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	calc := wss.NewTwoSize(pol)
	src := workload.MustNew("li", refs)
	buf := make([]trace.Ref, 4096)
	var step uint64
	events := 0

	fmt.Println("== part 1: policy timeline ==")
	for {
		n, err := src.Read(buf)
		for _, ref := range buf[:n] {
			step++
			res := pol.Assign(ref.Addr)
			calc.Observe(res)
			if res.Event == policy.EventNone || events >= 12 {
				continue
			}
			events++
			if res.Event == policy.EventPromote {
				fmt.Printf("  ref %8d: PROMOTE chunk %#07x (%d blocks active)  WSS=%s\n",
					step, uint64(res.Chunk), pol.Window().ChunkActive(res.Chunk),
					wss.FormatBytes(float64(calc.Current())))
			} else {
				fmt.Printf("  ref %8d: DEMOTE  chunk %#07x  WSS=%s\n",
					step, uint64(res.Chunk), wss.FormatBytes(float64(calc.Current())))
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			log.Fatal(err)
		}
	}

	// Part 2: a 16MB physical memory behind a 16-entry TLB.
	fmt.Println("\n== part 2: the same stream through page table + buddy allocator ==")
	sim := core.NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)),
		[]tlb.TLB{tlb.NewFullyAssoc(16)},
		core.WithMemory(core.Memory{Size: 16 << 20}), core.WithWSS())
	res, err := sim.Run(context.Background(), workload.MustNew("li", refs))
	if err != nil {
		log.Fatal(err)
	}
	st, pt, mem := res.PolicyStats, res.PageTable, res.Memory
	fmt.Printf("policy:     %d promotions, %d demotions, %d chunks large at end\n",
		st.Promotions, st.Demotions, st.LargeChunks)
	fmt.Printf("working set: %s average under 4KB/32KB\n", wss.FormatBytes(res.WSS.AvgBytes))
	fmt.Printf("page table: %d walks (%d faults), %d promoted, %.1f KB copied\n",
		pt.Lookups, pt.Misses, pt.Promotions, float64(pt.CopiedBytes)/1024)
	fmt.Printf("phys mem:   %d/%d frames free, %d large allocs (%d blocked by fragmentation)\n",
		mem.FreeFrames, mem.TotalFrames, mem.Buddy.LargeAllocs, mem.Buddy.FailedLargeFragmented)
	fmt.Printf("translation: %.3f cycles per reference\n", res.CyclesPerRef())
	fmt.Printf("handlers:   single-size miss %.0f cycles, two-size %.0f cycles (the paper's 20/25 model)\n",
		pagetable.SingleSizeHandlerCycles(), pagetable.TwoSizeHandlerCycles())
}

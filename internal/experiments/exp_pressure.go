package experiments

import (
	"context"
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
)

// memorySim builds the 4KB baseline or, when two is set, the two-page
// policy with window T, over one TLB and a memory stage.
func memorySim(two bool, T int, tl tlb.TLB, m core.Memory) *core.Simulator {
	var pol policy.Assigner
	if two {
		pol = policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	} else {
		pol = policy.NewSingle(addr.Size4K)
	}
	return core.NewSimulator(pol, []tlb.TLB{tl}, core.WithMemory(m))
}

// Pressure drives the full translation path (TLB + page table + buddy
// allocator + clock replacement: core's memory stage) under shrinking
// physical memory, for the 4KB baseline and the two-page scheme. It
// quantifies the costs the paper names but cannot measure: page faults
// from the larger working set, promotion copy traffic, and large-page
// allocations blocked by external fragmentation.
func Pressure(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	memSizes := []int{16 << 10, 1 << 10, 512}
	var labels []string
	var futs []*engine.Future[*core.Result]
	for _, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		for _, memKB := range memSizes {
			for _, two := range []bool{false, true} {
				label := fmt.Sprintf("pressure %s %dKB two=%t", s.Name, memKB, two)
				labels = append(labels, label)
				futs = append(futs, o.Engine.Ride(ctx, label, s.Name, refs,
					func() (*core.Simulator, error) {
						return memorySim(two, T, tlb.NewFullyAssoc(16),
							core.Memory{Size: addr.PageSize(memKB << 10)}), nil
					}))
			}
		}
	}
	tbl := tableio.New("Extension: end-to-end MMU under memory pressure (per 1000 accesses)",
		"Program", "Memory", "Policy", "cyc/access", "faults", "evictions", "frag-blocked", "copiedKB")
	i := 0
	for _, s := range specs {
		for _, memKB := range memSizes {
			for _, two := range []bool{false, true} {
				name := "4KB"
				if two {
					name = "4KB/32KB"
				}
				res, err := futs[i].Wait(ctx)
				if err != nil {
					return nil, err
				}
				o.Engine.Record(labels[i], res.Counters)
				per := float64(res.Refs) / 1000
				mem := fmt.Sprintf("%dKB", memKB)
				if memKB >= 1<<10 {
					mem = fmt.Sprintf("%dMB", memKB>>10)
				}
				tbl.Row(s.Name, mem, name,
					tableio.F(res.CyclesPerRef(), 2),
					tableio.F(float64(res.PageTable.Misses)/per, 2),
					tableio.F(float64(res.Memory.Evictions)/per, 2),
					fmt.Sprintf("%d", res.Memory.Buddy.FailedLargeFragmented),
					tableio.F(float64(res.PageTable.CopiedBytes)/1024, 0))
				i++
			}
		}
	}
	tbl.Note("Ample memory isolates TLB effects; tight memory exposes the working-set cost of large pages as faults.")
	return tbl, nil
}

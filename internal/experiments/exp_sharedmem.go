package experiments

import (
	"context"
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/multiprog"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

// SharedMem composes the two systems the paper names as missing —
// multiprogramming and memory management — into one measurement: four
// processes share one physical memory under core's memory stage
// (demand paging, clock replacement, promotion), and the 4KB baseline
// competes with the two-page policy as memory shrinks. It quantifies
// the paper's Section 6 worry that "larger working sets either demand a
// larger main memory, cause a higher page fault rate, or both" — in
// the multiprogrammed setting where the pressure actually arises.
func SharedMem(ctx context.Context, o *Options) (*tableio.Table, error) {
	mix := []string{"li", "x11perf", "espresso", "eqntott"}
	base, err := workload.Get("li")
	if err != nil {
		return nil, err
	}
	perProc := refsFor(base, o.Scale)
	quantum := int(perProc / 50)
	if quantum < 2000 {
		quantum = 2000
	}
	T := windowFor(perProc * uint64(len(mix)))

	memSizes := []int{16, 4, 2}
	var futs []*engine.Future[*core.Result]
	for _, memMB := range memSizes {
		memMB := memMB
		for _, two := range []bool{false, true} {
			two := two
			label := fmt.Sprintf("sharedmem %dMB two=%t", memMB, two)
			futs = append(futs, engine.Go(o.Engine, ctx, label,
				func(ctx context.Context) (*core.Result, error) {
					procs := make([]multiprog.Process, len(mix))
					for i, wname := range mix {
						s, err := workload.Get(wname)
						if err != nil {
							return nil, err
						}
						procs[i] = multiprog.Process{Name: wname, Source: s.New(perProc)}
					}
					mp, err := multiprog.New(procs, quantum)
					if err != nil {
						return nil, err
					}
					res, err := memoryPass(ctx, two, T, tlb.NewFullyAssoc(64),
						core.Memory{Size: addr.PageSize(memMB << 20)}, mp)
					if err != nil {
						return nil, err
					}
					o.Engine.Record(label, res.Counters)
					return res, nil
				}))
		}
	}
	tbl := tableio.New("Extension: four processes sharing memory under the full MMU (per 1000 accesses)",
		"Memory", "Policy", "cyc/access", "TLB miss%", "faults", "evictions", "copiedKB")
	i := 0
	for _, memMB := range memSizes {
		for _, two := range []bool{false, true} {
			name := "4KB"
			if two {
				name = "4KB/32KB"
			}
			res, err := futs[i].Wait(ctx)
			if err != nil {
				return nil, err
			}
			per := float64(res.Refs) / 1000
			tbl.Row(fmt.Sprintf("%dMB", memMB), name,
				tableio.F(res.CyclesPerRef(), 2),
				tableio.F(100*float64(res.TLBs[0].Stats.Misses())/float64(res.Refs), 2),
				tableio.F(float64(res.PageTable.Misses)/per, 2),
				tableio.F(float64(res.Memory.Evictions)/per, 2),
				tableio.F(float64(res.PageTable.CopiedBytes)/1024, 0))
			i++
		}
	}
	tbl.Note("Four-process mix (li, x11perf, espresso, eqntott), 64-entry FA TLB with ASID-tagged entries.")
	return tbl, nil
}

package experiments

import (
	"context"
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/allassoc"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/metrics"
	"twopage/internal/multiprog"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// multiprogMixes defines the process mixes per multiprogramming degree,
// drawn from the paper's small-working-set programs so the combined
// footprint stresses the TLB the way Section 6 anticipates.
var multiprogMixes = map[int][]string{
	1: {"li"},
	2: {"li", "x11perf"},
	4: {"li", "x11perf", "espresso", "eqntott"},
}

// multiprogRun is one (degree, policy) simulation's outcome.
type multiprogRun struct {
	cpis     [2][2]float64 // per mode (ASID, flush): FA16, FA64
	switches uint64
}

// Multiprog evaluates the effect the paper could not measure: TLB
// behaviour under multiprogramming, with ASID-tagged entries versus
// flush-on-context-switch, for the 4KB baseline and the two-page
// scheme, on 16- and 64-entry fully associative TLBs. Each
// (degree, policy) combination is one opaque task: one simulator drives
// an ASID-tagged FA16/FA64 pair and a flushed pair, and a context
// switch flushes only the flushed pair (a flush touches no other TLB).
// The scheduler interleaves the tasks freely because rows are assembled
// afterwards in fixed order.
func Multiprog(ctx context.Context, o *Options) (*tableio.Table, error) {
	degrees := []int{1, 2, 4}
	futs := map[int][2]*engine.Future[multiprogRun]{} // per policy: 4KB, two-page
	for _, degree := range degrees {
		mix := multiprogMixes[degree]
		// Per-process length shrinks with degree so each row simulates
		// comparable total work.
		var refs uint64
		for _, name := range mix {
			s, err := workload.Get(name)
			if err != nil {
				return nil, err
			}
			refs += refsFor(s, o.Scale)
		}
		perProc := refs / uint64(degree) / uint64(degree)
		quantum := int(perProc / 50)
		if quantum < 2000 {
			quantum = 2000
		}
		T := windowFor(perProc * uint64(degree))

		var pair [2]*engine.Future[multiprogRun]
		for pi, two := range []bool{false, true} {
			label := fmt.Sprintf("multiprog d=%d two=%t", degree, two)
			pair[pi] = engine.Go(o.Engine, ctx, label,
				func(ctx context.Context) (multiprogRun, error) {
					var pol policy.Assigner
					if two {
						pol = policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
					} else {
						pol = policy.NewSingle(addr.Size4K)
					}
					// ASID FA16, ASID FA64, flushed FA16, flushed FA64.
					tlbs := []tlb.TLB{tlb.NewFullyAssoc(16), tlb.NewFullyAssoc(64),
						tlb.NewFullyAssoc(16), tlb.NewFullyAssoc(64)}
					procs := make([]multiprog.Process, degree)
					for i, name := range mix {
						s, err := workload.Get(name)
						if err != nil {
							return multiprogRun{}, err
						}
						procs[i] = multiprog.Process{Name: name, Source: s.New(perProc)}
					}
					mp, err := multiprog.New(procs, quantum)
					if err != nil {
						return multiprogRun{}, err
					}
					mp.OnSwitch = func(from, to int) {
						for _, t := range tlbs[2:] {
							t.Flush()
						}
					}
					res, err := core.NewSimulator(pol, tlbs).Run(ctx, mp)
					if err != nil {
						return multiprogRun{}, err
					}
					return multiprogRun{
						cpis: [2][2]float64{
							{res.TLBs[0].CPITLB, res.TLBs[1].CPITLB},
							{res.TLBs[2].CPITLB, res.TLBs[3].CPITLB},
						},
						switches: mp.Switches(),
					}, nil
				})
		}
		futs[degree] = pair
	}
	tbl := tableio.New("Extension: multiprogramming (CPI_TLB, fully associative TLBs)",
		"Degree", "Mode", "4KB FA16", "4KB FA64", "4K/32K FA16", "4K/32K FA64", "switches")
	for _, degree := range degrees {
		r4, err := futs[degree][0].Wait(ctx)
		if err != nil {
			return nil, err
		}
		r2, err := futs[degree][1].Wait(ctx)
		if err != nil {
			return nil, err
		}
		for mi, mode := range []string{"asid", "flush"} {
			tbl.Row(fmt.Sprintf("%d", degree), mode,
				tableio.F(r4.cpis[mi][0], 3), tableio.F(r4.cpis[mi][1], 3),
				tableio.F(r2.cpis[mi][0], 3), tableio.F(r2.cpis[mi][1], 3),
				fmt.Sprintf("%d", r2.switches))
		}
	}
	tbl.Note("ASID mode tags entries per address space; flush mode empties the TLB at every switch.")
	tbl.Note("Large pages recover part of the flush cost: fewer entries refill the mapped footprint.")
	return tbl, nil
}

// tlbSweepRow carries one workload's all-associativity miss curves.
type tlbSweepRow struct {
	instrs  uint64
	m4, m32 []uint64
}

// TLBSweep uses all-associativity simulation to sweep fully associative
// TLB sizes 8..128 for 4KB and 32KB pages — quantifying the Section 5
// remark that the paper had to stay below 64 entries because "large
// TLBs in combination with large pages have negligible miss rates".
func TLBSweep(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	const maxWays = 128
	entries := []int{8, 16, 32, 64, 128}
	futs := make([]*engine.Future[tlbSweepRow], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		futs[i] = engine.Go(o.Engine, ctx, "tlbsweep "+s.Name,
			func(ctx context.Context) (tlbSweepRow, error) {
				sim4 := allassoc.MustNew(1, addr.Shift4K, maxWays)
				sim32 := allassoc.MustNew(1, addr.Shift32K, maxWays)
				var row tlbSweepRow
				if _, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
					for _, ref := range batch {
						if ref.Kind == trace.Instr {
							row.instrs++
						}
						sim4.Access(ref.Addr)
						sim32.Access(ref.Addr)
					}
				}); err != nil {
					return tlbSweepRow{}, err
				}
				for _, e := range entries {
					row.m4 = append(row.m4, sim4.Misses(e))
					row.m32 = append(row.m32, sim32.Misses(e))
				}
				return row, nil
			})
	}
	tbl := tableio.New("Extension: CPI_TLB vs fully associative TLB size (all-associativity pass)",
		"Program", "Pages", "8", "16", "32", "64", "128")
	for i, s := range specs {
		res, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		for _, pair := range []struct {
			label  string
			misses []uint64
		}{{"4KB", res.m4}, {"32KB", res.m32}} {
			row := []string{s.Name, pair.label}
			for j := range entries {
				cpi := metrics.CPITLB(pair.misses[j], res.instrs, metrics.MissPenaltySingle)
				row = append(row, tableio.F(cpi, 3))
			}
			tbl.Row(row...)
		}
	}
	tbl.Note("Paper Section 5: \"We do not use large TLBs (>= 64 entries) ... negligible miss rates for our workloads\".")
	return tbl, nil
}

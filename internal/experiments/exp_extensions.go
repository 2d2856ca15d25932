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

// multiprogRun is one degree's outcome.
type multiprogRun struct {
	cpis     [2][2][2]float64 // per policy (4KB, two-page), per mode (ASID, flush): FA16, FA64
	switches uint64
}

// Multiprog evaluates the effect the paper could not measure: TLB
// behaviour under multiprogramming, with ASID-tagged entries versus
// flush-on-context-switch, for the 4KB baseline and the two-page
// scheme, on 16- and 64-entry fully associative TLBs. Each degree is
// one opaque task that reads its mix once: a 4KB and a two-page
// simulator each drive an ASID-tagged FA16/FA64 pair and a flushed
// pair (multiprog.FlushOnSwitch), which empties itself at the first
// reference of each slice. The scheduler interleaves the tasks freely
// because rows are assembled afterwards in fixed order.
func Multiprog(ctx context.Context, o *Options) (*tableio.Table, error) {
	degrees := []int{1, 2, 4}
	futs := map[int]*engine.Future[multiprogRun]{}
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

		futs[degree] = engine.Go(o.Engine, ctx, fmt.Sprintf("multiprog d=%d", degree),
			func(ctx context.Context) (multiprogRun, error) {
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
				var sims []*core.Simulator
				for _, pol := range []policy.Assigner{policy.NewSingle(addr.Size4K), policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))} {
					// ASID FA16, ASID FA64, flushed FA16, flushed FA64.
					tlbs := []tlb.TLB{tlb.NewFullyAssoc(16), tlb.NewFullyAssoc(64),
						multiprog.NewFlushOnSwitch(tlb.NewFullyAssoc(16)), multiprog.NewFlushOnSwitch(tlb.NewFullyAssoc(64))}
					sims = append(sims, core.NewSimulator(pol, tlbs))
				}
				results, err := core.RunMany(ctx, mp, sims)
				if err != nil {
					return multiprogRun{}, err
				}
				run := multiprogRun{switches: mp.Switches()}
				for pi, res := range results {
					run.cpis[pi] = [2][2]float64{
						{res.TLBs[0].CPITLB, res.TLBs[1].CPITLB},
						{res.TLBs[2].CPITLB, res.TLBs[3].CPITLB},
					}
				}
				return run, nil
			})
	}
	tbl := tableio.New("Extension: multiprogramming (CPI_TLB, fully associative TLBs)",
		"Degree", "Mode", "4KB FA16", "4KB FA64", "4K/32K FA16", "4K/32K FA64", "switches")
	for _, degree := range degrees {
		run, err := futs[degree].Wait(ctx)
		if err != nil {
			return nil, err
		}
		r4, r2 := run.cpis[0], run.cpis[1]
		for mi, mode := range []string{"asid", "flush"} {
			tbl.Row(fmt.Sprintf("%d", degree), mode,
				tableio.F(r4[mi][0], 3), tableio.F(r4[mi][1], 3),
				tableio.F(r2[mi][0], 3), tableio.F(r2[mi][1], 3),
				fmt.Sprintf("%d", run.switches))
		}
	}
	tbl.Note("ASID mode tags entries per address space; flush mode empties the TLB at every switch.")
	tbl.Note("A flush costs most on the 4K/32K FA64, the TLB whose reach keeps the most entries alive across other processes' slices.")
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

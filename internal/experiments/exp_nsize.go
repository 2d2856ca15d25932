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

// threeClasses is the 4KB/32KB/256KB hierarchy the N-size experiments
// sweep: the paper's two sizes plus one more ×8 step, the smallest
// hierarchy that exercises every level of the promotion ladder while
// staying inside the window tracker's 24-bit chunk bound.
func threeClasses() addr.SizeClasses {
	return addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
}

// faCfgN is a fully associative TLB carrying an explicit hierarchy, so
// its per-class statistics classify 256KB pages correctly.
func faCfgN(entries int, classes addr.SizeClasses) tlb.Config {
	return tlb.Config{Entries: entries, Ways: entries, Shifts: classes.Shifts()}
}

// sampledLadderWSS rides a policy-only pass of the ladder configuration
// on the workload's stream, with no TLB and the sampled N-size working
// set attached (core.WithSampledWSS); the Result's WSS holds it. It is
// deliberately a separate pass from the TLB simulation: the engine
// memoizes the TLB pass across experiments, and the sampler is no part
// of its key.
func sampledLadderWSS(ctx context.Context, o *Options, wl string, refs uint64, cfg policy.LadderConfig) *engine.Future[*core.Result] {
	key := fmt.Sprintf("ladder3 ws %s T=%d thr=%v", wl, cfg.T, cfg.Thresholds)
	return o.Engine.Ride(ctx, key, wl, refs, func() (*core.Simulator, error) {
		return core.NewSimulator(policy.NewLadder(cfg), nil, core.WithSampledWSS(cfg.T)), nil
	})
}

// Ladder3 sweeps the three-size promotion ladder's thresholds over the
// 4KB/32KB/256KB hierarchy, against the NAPOT-contiguity alternative
// (promote a region the moment every one of its base blocks has been
// touched, RISC-V SVNAPOT style: no window, no demotion). CPI_TLB uses
// the 29-cycle three-size miss penalty on a 16-entry fully associative
// TLB; WS_norm is the sampled N-size working set over the static 4KB
// base (the NAPOT policy has no reference window, so no working set is
// reported for it).
func Ladder3(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	classes := threeClasses()
	sweeps := [][]int{{4, 4}, {2, 2}, {8, 8}, {4, 8}}
	type variant struct {
		name string
		pass *engine.Future[*core.Result]
		ws   *engine.Future[*core.Result] // nil for NAPOT
	}
	rows := make([][]variant, len(specs))
	ladders := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		ladders[i] = staticWSS(ctx, o, s, refs, uint64(T))
		for _, thr := range sweeps {
			cfg := policy.LadderConfig{
				T: T, Classes: classes,
				Thresholds: append([]int(nil), thr...), Demote: true,
			}
			rows[i] = append(rows[i], variant{
				name: fmt.Sprintf("thr %d/%d", thr[0], thr[1]),
				pass: passFuture(ctx, o, s.Name, refs, engine.LadderPolicy(cfg), faCfgN(16, classes)),
				ws:   sampledLadderWSS(ctx, o, s.Name, refs, cfg),
			})
		}
		rows[i] = append(rows[i], variant{
			name: "napot",
			pass: o.Engine.Ride(ctx, "ladder3 napot "+s.Name, s.Name, refs,
				func() (*core.Simulator, error) {
					pol := policy.NewNapot(policy.NapotConfig{Classes: classes})
					hw := tlb.MustNew(faCfgN(16, classes))
					return core.NewSimulator(pol, []tlb.TLB{hw}), nil
				}),
		})
	}
	tbl := tableio.New("Extension: three-size promotion ladder, 4KB/32KB/256KB (16-entry FA, 29-cycle penalty)",
		"Program", "Policy", "CPI_TLB", "32K-ref%", "256K-ref%", "promo-32K", "promo-256K", "WS_norm")
	for i, s := range specs {
		ladder, err := ladders[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		base := ladder.StaticWSS[engine.StaticIndex(addr.Shift4K)].AvgBytes
		for _, v := range rows[i] {
			res, err := v.pass.Wait(ctx)
			if err != nil {
				return nil, err
			}
			ls := res.LadderStats
			if ls == nil {
				return nil, fmt.Errorf("experiments: %s %s pass has no ladder stats", s.Name, v.name)
			}
			wsCell := "-"
			if v.ws != nil {
				w, err := v.ws.Wait(ctx)
				if err != nil {
					return nil, err
				}
				wsCell = tableio.F(w.WSS.AvgBytes/base, 2)
			}
			tbl.Row(s.Name, v.name,
				tableio.F(res.TLBs[0].CPITLB, 3),
				tableio.F(100*float64(ls.RefsByClass[1])/float64(ls.Refs), 1),
				tableio.F(100*float64(ls.RefsByClass[2])/float64(ls.Refs), 1),
				tableio.F(float64(ls.Promotions[1]), 0),
				tableio.F(float64(ls.Promotions[2]), 0),
				wsCell)
		}
	}
	tbl.Note("thr a/b: promote a chunk at a active blocks, a 256KB region at b mapped chunks; napot = promote on full contiguity, never demote.")
	return tbl, nil
}

// NIndex sweeps the Section 2.2 indexing question across the three-size
// hierarchy: which page-number bits index a set-associative TLB when
// three sizes coexist. Indexing by any single class's bits is option
// (a)/(b) generalized; exact per-size indexing with sequential reprobe
// is option (d); the per-class split is option (c). All organizations
// run under the default three-size ladder (thresholds 4/4).
func NIndex(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	classes := threeClasses()
	entriesSweep := []int{16, 32}
	type row struct {
		entries int
		pass    *engine.Future[*core.Result] // ix0, ix1, ix2, exact, FA
		split   *engine.Future[*core.Result]
	}
	rows := make([][]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		cfg := policy.DefaultLadderConfig(T, classes)
		for _, entries := range entriesSweep {
			var cfgs []tlb.Config
			for k := 0; k < classes.N(); k++ {
				cfgs = append(cfgs, tlb.Config{
					Entries: entries, Ways: 2,
					Index: tlb.IndexByClass(k), Shifts: classes.Shifts(),
				})
			}
			cfgs = append(cfgs, tlb.Config{
				Entries: entries, Ways: 2,
				Index: tlb.IndexExact, Shifts: classes.Shifts(),
			})
			cfgs = append(cfgs, faCfgN(entries, classes))
			rows[i] = append(rows[i], row{
				entries: entries,
				pass:    passFuture(ctx, o, s.Name, refs, engine.LadderPolicy(cfg), cfgs...),
				split: o.Engine.Ride(ctx, fmt.Sprintf("nindex split %s e%d", s.Name, entries), s.Name, refs,
					func() (*core.Simulator, error) {
						// Half the entries to the base class, a quarter to
						// each large class — the 8+4+4 shape of the paper's
						// PA-RISC example, scaled.
						half := entries / 2
						quarter := entries / 4
						ms, err := tlb.NewMultiSplit([]tlb.Config{
							{Entries: half, Ways: 2, Shifts: classes.Shifts()},
							{Entries: quarter, Ways: quarter, Shifts: classes.Shifts()},
							{Entries: quarter, Ways: quarter, Shifts: classes.Shifts()},
						})
						if err != nil {
							return nil, err
						}
						return core.NewSimulator(policy.NewLadder(cfg), []tlb.TLB{ms}), nil
					}),
			})
		}
	}
	tbl := tableio.New("Extension: TLB indexing with three page sizes, 2-way (CPI_TLB, 29-cycle penalty)",
		"Program", "Entries", "ix 4K", "ix 32K", "ix 256K", "exact", "split", "FA")
	for i, s := range specs {
		for _, r := range rows[i] {
			res, err := r.pass.Wait(ctx)
			if err != nil {
				return nil, err
			}
			split, err := r.split.Wait(ctx)
			if err != nil {
				return nil, err
			}
			tbl.Row(s.Name, tableio.F(float64(r.entries), 0),
				tableio.F(res.TLBs[0].CPITLB, 3),
				tableio.F(res.TLBs[1].CPITLB, 3),
				tableio.F(res.TLBs[2].CPITLB, 3),
				tableio.F(res.TLBs[3].CPITLB, 3),
				tableio.F(split.TLBs[0].CPITLB, 3),
				tableio.F(res.TLBs[4].CPITLB, 3))
		}
	}
	tbl.Note("Indexing by one class's bits thrashes the others' sets; exact indexing pays reprobes; the split idles unused halves.")
	return tbl, nil
}

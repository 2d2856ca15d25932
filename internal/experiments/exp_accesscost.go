package experiments

import (
	"context"

	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/metrics"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/tlbx"
)

// accessCostRow is one workload's per-strategy translation cost.
type accessCostRow struct {
	parallel, sequential, split, twoLevel float64
	reprobePct                            float64
}

// AccessCost prices the three exact-index access strategies of
// Section 2.2 — option (a) parallel/dual-ported probe, option (b)
// sequential reprobe, option (c) split TLBs — plus a two-level TLB
// hierarchy, as average translation cycles per reference:
//
//	cycles/ref = hit-path cycles + miss-ratio × 25-cycle handler
//
// Parallel and sequential exact indexing share contents (identical
// misses); they differ in the hit path: the sequential variant probes
// with the small page number first and reprobes on large-page hits
// and misses (Stats.Reprobes), exactly the cost the paper says makes
// option (b) questionable ("It is not clear this gives any performance
// advantage for using the larger page size"). The two-level hierarchy
// charges its L2 refills an intermediate cost. The split and two-level
// organizations are not expressible as one tlb.Config, so each
// workload runs as one opaque task.
func AccessCost(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	const (
		probeCycles   = 1.0 // one TLB probe
		l2ProbeCycles = 3.0 // bigger, slower second-level TLB
	)
	futs := make([]*engine.Future[accessCostRow], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		futs[i] = engine.Go(o.Engine, ctx, "accesscost "+s.Name,
			func(ctx context.Context) (accessCostRow, error) {
				unified := twoWay(16, tlb.IndexExact)
				split, err := tlb.NewMultiSplit([]tlb.Config{{Entries: 8, Ways: 2}, {Entries: 8, Ways: 4}})
				if err != nil {
					return accessCostRow{}, err
				}
				twoLvl, err := tlbx.NewTwoLevel(
					tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact},
					tlb.Config{Entries: 64, Ways: 4, Index: tlb.IndexExact})
				if err != nil {
					return accessCostRow{}, err
				}
				pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
				sim := core.NewSimulator(pol, []tlb.TLB{unified, split, twoLvl})
				if _, err := sim.Run(ctx, s.New(refs)); err != nil {
					return accessCostRow{}, err
				}
				perRef := func(st tlb.Stats, hitCycles float64) float64 {
					if st.Accesses == 0 {
						return 0
					}
					return hitCycles + st.MissRatio()*metrics.MissPenaltyTwo
				}
				ust := unified.Stats()
				// Sequential: every access pays one probe; large hits and misses
				// pay a second.
				reprobeFrac := float64(ust.Reprobes()) / float64(ust.Accesses)
				tst := twoLvl.Stats()
				l2Frac := float64(twoLvl.L2Hits) / float64(tst.Accesses)
				return accessCostRow{
					parallel:   perRef(ust, probeCycles),
					sequential: perRef(ust, probeCycles+reprobeFrac*probeCycles),
					split:      perRef(split.Stats(), probeCycles),
					twoLevel:   perRef(tst, probeCycles+l2Frac*l2ProbeCycles),
					reprobePct: 100 * reprobeFrac,
				}, nil
			})
	}
	tbl := tableio.New("Extension: translation cycles per reference, exact-index access strategies (16 entries)",
		"Program", "parallel", "sequential", "split 8+8", "L1(16)+L2(64)", "reprobe%")
	for i, s := range specs {
		row, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		tbl.Row(s.Name,
			tableio.F(row.parallel, 3),
			tableio.F(row.sequential, 3),
			tableio.F(row.split, 3),
			tableio.F(row.twoLevel, 3),
			tableio.F(row.reprobePct, 0)+"%")
	}
	tbl.Note("Parallel and sequential share contents; sequential adds a reprobe on every large-page hit and every miss.")
	return tbl, nil
}

package experiments

import (
	"context"

	"twopage/internal/addr"
	"twopage/internal/cache"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/metrics"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/tlbx"
	"twopage/internal/trace"
)

// cacheTLBStats carries one workload's cache/TLB interaction counters.
type cacheTLBStats struct {
	l1Miss       float64
	cpiP, cpiV   float64
	savedPercent float64
}

// CacheTLB quantifies the Section 1 argument that L1 tagging dictates
// TLB pressure: with physical tags every reference consults the TLB;
// with virtual tags only L1 misses do. One pass per workload drives a
// 64KB L1 model and two identical TLBs — one fed every reference, one
// fed only the cache-miss stream.
func CacheTLB(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	futs := make([]*engine.Future[cacheTLBStats], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		futs[i] = engine.Go(o.Engine, ctx, "cachetlb "+s.Name,
			func(ctx context.Context) (cacheTLBStats, error) {
				l1 := cache.MustNew(cache.Config{Size: 64 << 10, Block: 32, Ways: 2})
				phys := tlb.NewFullyAssoc(16)
				virt := tlb.NewFullyAssoc(16)
				pol := policy.NewSingle(addr.Size4K)
				var instrs uint64
				if _, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
					//paperlint:ignore oneloop one size, no policy events, and an L1 filter in front of one TLB that core has no stage for; through core, with the filter as a TLB wrapper, this pass ran about 21% slower
					for _, ref := range batch {
						if ref.Kind == trace.Instr {
							instrs++
						}
						res := pol.Assign(ref.Addr)
						phys.Access(ref.Addr, res.Page)
						if !l1.Access(ref.Addr) {
							virt.Access(ref.Addr, res.Page)
						}
					}
				}); err != nil {
					return cacheTLBStats{}, err
				}
				return cacheTLBStats{
					l1Miss: 100 * l1.Stats().MissRatio(),
					cpiP:   metrics.CPITLB(phys.Stats().Misses(), instrs, metrics.MissPenaltySingle),
					cpiV:   metrics.CPITLB(virt.Stats().Misses(), instrs, metrics.MissPenaltySingle),
					savedPercent: 100 * (1 -
						float64(virt.Stats().Accesses)/float64(phys.Stats().Accesses)),
				}, nil
			})
	}
	tbl := tableio.New("Extension: L1 tagging vs TLB pressure (16-entry FA TLB, 4KB pages)",
		"Program", "L1 miss%", "CPI phys-tag", "CPI virt-tag", "TLB accesses saved")
	for i, s := range specs {
		st, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		tbl.Row(s.Name,
			tableio.F(st.l1Miss, 1),
			tableio.F(st.cpiP, 3),
			tableio.F(st.cpiV, 3),
			tableio.F(st.savedPercent, 0)+"%")
	}
	tbl.Note("Virtual tags consult the TLB only on L1 misses (Section 1), so a much larger TLB becomes feasible.")
	return tbl, nil
}

// Conflict evaluates the conflict-mitigation hardware the paper's
// conclusion gestures at (avoiding designs that require full
// associativity): a victim buffer and next-page prefetching behind a
// 16-entry two-way exact-index TLB, under the two-page policy. The
// augmented TLBs (tlbx) are not expressible as a plain tlb.Config, so
// each workload runs as one ride driving all four organizations.
func Conflict(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	futs := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		futs[i] = o.Engine.Ride(ctx, "conflict "+s.Name, s.Name, refs,
			func() (*core.Simulator, error) {
				vict, err := tlbx.NewVictim(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact}, 4)
				if err != nil {
					return nil, err
				}
				pf, err := tlbx.NewPrefetch(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact})
				if err != nil {
					return nil, err
				}
				tlbs := []tlb.TLB{
					twoWay(16, tlb.IndexExact),
					vict,
					pf,
					tlb.NewFullyAssoc(16),
				}
				return core.NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)), tlbs), nil
			})
	}
	tbl := tableio.New("Extension: conflict mitigation for two-page set-associative TLBs (CPI_TLB)",
		"Program", "2-way exact", "+4-entry victim", "+prefetch", "fully assoc")
	for i, s := range specs {
		res, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		tbl.Row(s.Name,
			tableio.F(res.TLBs[0].CPITLB, 3),
			tableio.F(res.TLBs[1].CPITLB, 3),
			tableio.F(res.TLBs[2].CPITLB, 3),
			tableio.F(res.TLBs[3].CPITLB, 3))
	}
	tbl.Note("The victim buffer targets tomcatv-style set conflicts; prefetch targets sequential compulsory misses.")
	return tbl, nil
}

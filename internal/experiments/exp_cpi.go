package experiments

import (
	"context"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/metrics"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
)

// passFuture submits one (workload, policy, TLB set) pass to the
// engine. All CPI experiments funnel through here, so any two that
// need the same single-TLB unit share one simulation.
func passFuture(ctx context.Context, o *Options, wl string, refs uint64, pol engine.PolicySpec, tlbs ...tlb.Config) *engine.Future[*core.Result] {
	return o.Engine.Pass(ctx, engine.PassSpec{
		Workload: wl, Refs: refs, Policy: pol, TLBs: tlbs,
	})
}

// Fig51 reproduces Figure 5.1: CPI_TLB on a 16-entry fully associative
// TLB for 4KB, 8KB and 32KB single page sizes and the 4KB/32KB scheme.
func Fig51(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	sizes := []addr.PageSize{addr.Size4K, addr.Size8K, addr.Size32K}
	type row struct {
		singles []*engine.Future[*core.Result]
		two     *engine.Future[*core.Result]
	}
	rows := make([]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		for _, size := range sizes {
			rows[i].singles = append(rows[i].singles,
				passFuture(ctx, o, s.Name, refs, engine.SinglePolicy(size), faCfg(16)))
		}
		rows[i].two = passFuture(ctx, o, s.Name, refs,
			engine.TwoSizePolicy(policy.DefaultTwoSizeConfig(T)), faCfg(16))
	}
	tbl := tableio.New("Figure 5.1: CPI_TLB, 16-entry fully associative TLB",
		"Program", "4KB", "8KB", "32KB", "4KB/32KB", "large-ref%")
	for i, s := range specs {
		var cpis []float64
		for _, f := range rows[i].singles {
			res, err := f.Wait(ctx)
			if err != nil {
				return nil, err
			}
			cpis = append(cpis, res.TLBs[0].CPITLB)
		}
		resTwo, err := rows[i].two.Wait(ctx)
		if err != nil {
			return nil, err
		}
		largePct := 100 * float64(resTwo.PolicyStats.LargeRefs) / float64(resTwo.PolicyStats.Refs)
		tbl.Row(s.Name,
			tableio.F(cpis[0], 3), tableio.F(cpis[1], 3), tableio.F(cpis[2], 3),
			tableio.F(resTwo.TLBs[0].CPITLB, 3), tableio.F(largePct, 0))
	}
	tbl.Note("Paper: 32KB ≈ 8x better than 4KB; two-page slightly above 32KB (25-cycle penalty), usually below 8KB.")
	return tbl, nil
}

// Fig52 reproduces Figure 5.2: CPI_TLB on 16- and 32-entry two-way
// set-associative TLBs, single sizes (indexed by their own page number)
// vs the two-page scheme with exact indexing.
func Fig52(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	sizes := []addr.PageSize{addr.Size4K, addr.Size8K, addr.Size32K}
	entriesList := []int{16, 32}
	type row struct {
		singles []*engine.Future[*core.Result]
		two     *engine.Future[*core.Result]
	}
	var rows []row
	for _, entries := range entriesList {
		for _, s := range specs {
			refs := refsFor(s, o.Scale)
			T := windowFor(refs)
			var r row
			for _, size := range sizes {
				r.singles = append(r.singles,
					passFuture(ctx, o, s.Name, refs, engine.SinglePolicy(size), twoWayCfg(entries, tlb.IndexExact)))
			}
			r.two = passFuture(ctx, o, s.Name, refs,
				engine.TwoSizePolicy(policy.DefaultTwoSizeConfig(T)), twoWayCfg(entries, tlb.IndexExact))
			rows = append(rows, r)
		}
	}
	tbl := tableio.New("Figure 5.2: CPI_TLB, two-way set-associative TLBs (exact index)",
		"Program", "Entries", "4KB", "8KB", "32KB", "4KB/32KB")
	i := 0
	for _, entries := range entriesList {
		for _, s := range specs {
			var cpis []float64
			for _, f := range rows[i].singles {
				res, err := f.Wait(ctx)
				if err != nil {
					return nil, err
				}
				cpis = append(cpis, res.TLBs[0].CPITLB)
			}
			resTwo, err := rows[i].two.Wait(ctx)
			if err != nil {
				return nil, err
			}
			tbl.Row(s.Name, tableio.F(float64(entries), 0),
				tableio.F(cpis[0], 3), tableio.F(cpis[1], 3), tableio.F(cpis[2], 3),
				tableio.F(resTwo.TLBs[0].CPITLB, 3))
			i++
		}
	}
	tbl.Note("Paper: most programs improve with two page sizes; espresso/worm degrade; tomcatv thrashes large-index bits.")
	return tbl, nil
}

// Table51 reproduces Table 5.1: the four columns comparing indexing
// schemes for 16- and 32-entry two-way TLBs.
func Table51(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	entriesList := []int{16, 32}
	type row struct {
		four, two *engine.Future[*core.Result]
	}
	var rows []row
	for _, entries := range entriesList {
		for _, s := range specs {
			refs := refsFor(s, o.Scale)
			T := windowFor(refs)
			rows = append(rows, row{
				// One submission covers the two 4KB columns; the engine
				// decomposes it per TLB and shares units with DeltaMP
				// and Indexing.
				four: passFuture(ctx, o, s.Name, refs, engine.SinglePolicy(addr.Size4K),
					twoWayCfg(entries, tlb.IndexSmall), twoWayCfg(entries, tlb.IndexLarge)),
				two: passFuture(ctx, o, s.Name, refs,
					engine.TwoSizePolicy(policy.DefaultTwoSizeConfig(T)),
					twoWayCfg(entries, tlb.IndexLarge), twoWayCfg(entries, tlb.IndexExact)),
			})
		}
	}
	tbl := tableio.New("Table 5.1: Comparison of indexing schemes (CPI_TLB, two-way)",
		"Program", "Entries", "4KB", "4KB lg-ix", "4K/32K lg-ix", "4K/32K exact")
	i := 0
	for _, entries := range entriesList {
		for _, s := range specs {
			res4, err := rows[i].four.Wait(ctx)
			if err != nil {
				return nil, err
			}
			resTwo, err := rows[i].two.Wait(ctx)
			if err != nil {
				return nil, err
			}
			tbl.Row(s.Name, tableio.F(float64(entries), 0),
				tableio.F(res4.TLBs[0].CPITLB, 3),
				tableio.F(res4.TLBs[1].CPITLB, 3),
				tableio.F(resTwo.TLBs[0].CPITLB, 3),
				tableio.F(resTwo.TLBs[1].CPITLB, 3))
			i++
		}
	}
	tbl.Note("Paper: the large-page index without large pages (col 2 vs 1) degrades severely; exact vs large index are often comparable with two sizes.")
	return tbl, nil
}

// DeltaMP reproduces the Section 5.2 metric: the critical miss-penalty
// increase Δmp(4KB/32KB) on the fully associative and two-way TLBs.
func DeltaMP(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	type row struct {
		four, two *engine.Future[*core.Result]
	}
	rows := make([]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		rows[i] = row{
			four: passFuture(ctx, o, s.Name, refs, engine.SinglePolicy(addr.Size4K),
				faCfg(16), twoWayCfg(16, tlb.IndexSmall), twoWayCfg(32, tlb.IndexSmall)),
			two: passFuture(ctx, o, s.Name, refs,
				engine.TwoSizePolicy(policy.DefaultTwoSizeConfig(T)),
				faCfg(16), twoWayCfg(16, tlb.IndexExact), twoWayCfg(32, tlb.IndexExact)),
		}
	}
	tbl := tableio.New("Critical miss-penalty increase Δmp(4KB/32KB)",
		"Program", "FA16 Δmp", "16e2w Δmp", "32e2w Δmp")
	for i, s := range specs {
		res4, err := rows[i].four.Wait(ctx)
		if err != nil {
			return nil, err
		}
		resTwo, err := rows[i].two.Wait(ctx)
		if err != nil {
			return nil, err
		}
		cells := []string{s.Name}
		for j := range res4.TLBs {
			d := metrics.CriticalMissPenaltyIncrease(res4.TLBs[j].MPI, resTwo.TLBs[j].MPI)
			cells = append(cells, tableio.Pct(d))
		}
		tbl.Row(cells...)
	}
	tbl.Note("Paper: Δmp ranges 30%%-1200%% for programs that improve; even a 30%% penalty increase preserves the win.")
	return tbl, nil
}

// Indexing reproduces the Section 5.2.1 hazard: a system whose TLB is
// indexed by the large page number but whose software allocates no
// large pages (the paper's old-OS-on-new-hardware scenario).
func Indexing(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	futs := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		futs[i] = passFuture(ctx, o, s.Name, refs, engine.SinglePolicy(addr.Size4K),
			twoWayCfg(16, tlb.IndexSmall), twoWayCfg(16, tlb.IndexLarge),
			twoWayCfg(32, tlb.IndexSmall), twoWayCfg(32, tlb.IndexLarge))
	}
	tbl := tableio.New("Section 5.2.1: 4KB-only software on large-page-indexed hardware (CPI_TLB)",
		"Program", "16e small-ix", "16e large-ix", "degrade (x)", "32e small-ix", "32e large-ix", "degrade (x)")
	for i, s := range specs {
		res, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		d16 := metrics.Ratio(res.TLBs[1].CPITLB, res.TLBs[0].CPITLB)
		d32 := metrics.Ratio(res.TLBs[3].CPITLB, res.TLBs[2].CPITLB)
		tbl.Row(s.Name,
			tableio.F(res.TLBs[0].CPITLB, 3), tableio.F(res.TLBs[1].CPITLB, 3),
			tableio.F(d16, 1),
			tableio.F(res.TLBs[2].CPITLB, 3), tableio.F(res.TLBs[3].CPITLB, 3),
			tableio.F(d32, 1))
	}
	tbl.Note("Paper: without OS support, two-page hardware can do worse than plain 4KB hardware (Table 5.1 cols 1-2).")
	return tbl, nil
}

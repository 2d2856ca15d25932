package experiments

import (
	"context"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

// ablationDefault is the representative subset used by the ablations
// when no explicit workload list is given: one program per behaviour
// class (sparse heap, promotion-resistant, dense matrix, large-index
// pathological).
var ablationDefault = []string{"li", "worm", "matrix300", "tomcatv"}

// ablationSpecs resolves the ablation workload set without mutating the
// shared Options (the default list is applied locally).
func (o *Options) ablationSpecs() ([]workload.Spec, error) {
	if len(o.Workloads) == 0 {
		out := make([]workload.Spec, 0, len(ablationDefault))
		for _, name := range ablationDefault {
			s, err := workload.Get(name)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	return o.specs()
}

// wssPass submits a two-size pass with the working-set calculator
// attached, against a 16-entry fully associative TLB.
func wssPass(ctx context.Context, o *Options, wl string, refs uint64, cfg policy.TwoSizeConfig) *engine.Future[*core.Result] {
	return o.Engine.Pass(ctx, engine.PassSpec{
		Workload: wl, Refs: refs, Policy: engine.TwoSizePolicy(cfg),
		TLBs: []tlb.Config{faCfg(16)}, WSS: true,
	})
}

// ThresholdSweep varies the promotion threshold over 1..8 blocks,
// reporting CPI_TLB (16-entry FA), the working-set cost, and how much
// traffic moves to large pages. Threshold 4 is the paper's policy;
// threshold 1 promotes on first touch (≈ a 32KB single size with lazy
// growth), threshold 8 promotes only fully-populated chunks.
func ThresholdSweep(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	type row struct {
		ladder *engine.Future[[]wss.Result]
		sweeps []*engine.Future[*core.Result]
	}
	rows := make([]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		rows[i].ladder = staticWSS(ctx, o, s, refs, uint64(T))
		for thr := 1; thr <= addr.BlocksPerChunk; thr++ {
			cfg := policy.TwoSizeConfig{T: T, Threshold: thr, Demote: true, LargeShift: addr.ChunkShift}
			rows[i].sweeps = append(rows[i].sweeps, wssPass(ctx, o, s.Name, refs, cfg))
		}
	}
	tbl := tableio.New("Ablation: promotion threshold (16-entry fully associative)",
		"Program", "Thr", "CPI_TLB", "WS_norm", "large-ref%", "promos")
	for i, s := range specs {
		ladder, err := rows[i].ladder.Wait(ctx)
		if err != nil {
			return nil, err
		}
		base := ladder[engine.StaticIndex(addr.Shift4K)].AvgBytes
		for j, f := range rows[i].sweeps {
			res, err := f.Wait(ctx)
			if err != nil {
				return nil, err
			}
			largePct := 100 * float64(res.PolicyStats.LargeRefs) / float64(res.PolicyStats.Refs)
			tbl.Row(s.Name, tableio.F(float64(j+1), 0),
				tableio.F(res.TLBs[0].CPITLB, 3),
				tableio.F(res.WSS.AvgBytes/base, 2),
				tableio.F(largePct, 0),
				tableio.F(float64(res.PolicyStats.Promotions), 0))
		}
	}
	tbl.Note("Threshold 4 is the paper's policy: the half-or-more rule bounds WS_norm at 2.0.")
	return tbl, nil
}

// Combos compares the 4KB/16KB, 4KB/32KB and 4KB/64KB combinations the
// paper measured but had no space to print (Section 3.2).
func Combos(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	shifts := []uint{addr.Shift16K, addr.Shift32K, addr.Shift64K}
	type row struct {
		ladder *engine.Future[[]wss.Result]
		combos []*engine.Future[*core.Result]
	}
	rows := make([]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		rows[i].ladder = staticWSS(ctx, o, s, refs, uint64(T))
		for _, ls := range shifts {
			bpc := 1 << (ls - addr.BlockShift)
			cfg := policy.TwoSizeConfig{T: T, Threshold: bpc / 2, Demote: true, LargeShift: ls}
			rows[i].combos = append(rows[i].combos, wssPass(ctx, o, s.Name, refs, cfg))
		}
	}
	tbl := tableio.New("Ablation: large-page size in the two-page scheme (16-entry FA)",
		"Program", "CPI 4/16K", "CPI 4/32K", "CPI 4/64K", "WSn 4/16K", "WSn 4/32K", "WSn 4/64K")
	for i, s := range specs {
		ladder, err := rows[i].ladder.Wait(ctx)
		if err != nil {
			return nil, err
		}
		base := ladder[engine.StaticIndex(addr.Shift4K)].AvgBytes
		var cpis, wsns []float64
		for _, f := range rows[i].combos {
			res, err := f.Wait(ctx)
			if err != nil {
				return nil, err
			}
			cpis = append(cpis, res.TLBs[0].CPITLB)
			wsns = append(wsns, res.WSS.AvgBytes/base)
		}
		tbl.Row(s.Name,
			tableio.F(cpis[0], 3), tableio.F(cpis[1], 3), tableio.F(cpis[2], 3),
			tableio.F(wsns[0], 2), tableio.F(wsns[1], 2), tableio.F(wsns[2], 2))
	}
	tbl.Note("Bigger large pages map more memory per entry but cost more working set; 32KB is the paper's sweet spot.")
	return tbl, nil
}

// SplitVsUnified compares Section 2.2's option (c) — split per-size
// TLBs — against a unified exact-index TLB and a fully associative TLB
// of the same total capacity, all under the two-page policy. Split TLBs
// are not expressible as one tlb.Config, so each workload runs as one
// ride driving all four organizations.
func SplitVsUnified(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	futs := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		futs[i] = o.Engine.Ride(ctx, "split "+s.Name, s.Name, refs,
			func() (*core.Simulator, error) {
				// PA-RISC style: fully associative halves (the paper cites
				// HP's 4-entry Block TLB for large pages).
				split124, err := tlb.NewMultiSplit([]tlb.Config{
					{Entries: 12, Ways: 12}, {Entries: 4, Ways: 4}})
				if err != nil {
					return nil, err
				}
				split88, err := tlb.NewMultiSplit([]tlb.Config{
					{Entries: 8, Ways: 2}, {Entries: 8, Ways: 4}})
				if err != nil {
					return nil, err
				}
				tlbs := []tlb.TLB{
					twoWay(16, tlb.IndexExact),
					split124,
					split88,
					tlb.NewFullyAssoc(16),
				}
				return core.NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)), tlbs), nil
			})
	}
	tbl := tableio.New("Ablation: split vs unified two-page TLBs (16 entries total, CPI_TLB)",
		"Program", "unified 2-way exact", "split 12+4", "split 8+8", "fully assoc")
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
	tbl.Note("Split TLBs waste capacity when the page-size mix is skewed (paper Section 2.2, option (c)).")
	return tbl, nil
}

// ReplacementSweep varies the replacement policy on a 16-entry
// fully-associative and a 16-entry 2-way TLB with 4KB pages. The paper
// assumes LRU throughout.
func ReplacementSweep(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	futs := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		var cfgs []tlb.Config
		for _, repl := range []tlb.Replacement{tlb.LRU, tlb.FIFO, tlb.Random} {
			cfgs = append(cfgs, tlb.Config{Entries: 16, Ways: 16, Repl: repl, Seed: 42})
		}
		for _, repl := range []tlb.Replacement{tlb.LRU, tlb.FIFO, tlb.Random} {
			cfgs = append(cfgs, tlb.Config{Entries: 16, Ways: 2, Repl: repl, Seed: 42})
		}
		futs[i] = passFuture(ctx, o, s.Name, refs, engine.SinglePolicy(addr.Size4K), cfgs...)
	}
	tbl := tableio.New("Ablation: replacement policy, 4KB pages (CPI_TLB)",
		"Program", "FA LRU", "FA FIFO", "FA random", "2-way LRU", "2-way FIFO", "2-way random")
	for i, s := range specs {
		res, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		row := []string{s.Name}
		for _, tr := range res.TLBs {
			row = append(row, tableio.F(tr.CPITLB, 3))
		}
		tbl.Row(row...)
	}
	return tbl, nil
}

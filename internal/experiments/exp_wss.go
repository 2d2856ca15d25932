package experiments

import (
	"context"
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/metrics"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

// staticWSS submits the canonical static working-set ladder for one
// workload, the stream's one profile pass. Every working-set experiment
// keys on the same (workload, refs, T) unit, so fig4.1, fig4.2,
// table3.1, the sensitivity sweep, policies and protect share one pass
// per workload.
func staticWSS(ctx context.Context, o *Options, s workload.Spec, refs uint64, T uint64) *engine.Future[*core.Result] {
	return o.Engine.StaticWSS(ctx, engine.StaticWSSUnit{Workload: s.Name, Refs: refs, T: T})
}

// twoSizeWSS submits the dynamic scheme's working-set pass at window T:
// a two-size pass with the exact calculator and no TLB, which joins its
// stream's read like any unit.
func twoSizeWSS(ctx context.Context, o *Options, s workload.Spec, refs uint64, T int) *engine.Future[*core.Result] {
	return o.Engine.Pass(ctx, engine.PassSpec{Workload: s.Name, Refs: refs,
		Policy: engine.TwoSizePolicy(policy.DefaultTwoSizeConfig(T)), WSS: true})
}

// normAt returns the static ladder's working set at shift normalized
// against the 4KB base.
func normAt(ladder *core.Result, shift uint) (float64, error) {
	i := engine.StaticIndex(shift)
	if i < 0 {
		return 0, fmt.Errorf("experiments: shift %d not in the static ladder", shift)
	}
	return metrics.WSNormalized(ladder.StaticWSS[i].AvgBytes, ladder.StaticWSS[engine.StaticIndex(addr.Shift4K)].AvgBytes), nil
}

// Table31 reproduces Table 3.1: per-program trace length, references per
// instruction, and average working-set size at 4KB pages.
func Table31(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	ladders := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		ladders[i] = staticWSS(ctx, o, s, refs, uint64(windowFor(refs)))
	}
	tbl := tableio.New("Table 3.1: Workloads (synthetic reproductions)",
		"Program", "Refs(M)", "RPI", "WS@4KB(T=refs/8)", "Class")
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		ladder, err := ladders[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		class := "small"
		if s.LargeWS {
			class = "large"
		}
		tbl.Row(s.Name,
			tableio.F(float64(refs)/1e6, 1),
			tableio.F(ladder.RPI(), 2),
			wss.FormatBytes(ladder.StaticWSS[engine.StaticIndex(addr.Shift4K)].AvgBytes),
			class)
	}
	tbl.Note("Paper classes: small < 1MB working set, large > 1MB (at full trace lengths).")
	return tbl, nil
}

// Fig41 reproduces Figure 4.1: WS_Normalized for single page sizes
// 8KB..64KB, per program, plus the cross-program average.
func Fig41(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	shifts := []uint{addr.Shift8K, addr.Shift16K, addr.Shift32K, addr.Shift64K}
	futs := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		futs[i] = staticWSS(ctx, o, s, refs, uint64(windowFor(refs)))
	}
	tbl := tableio.New("Figure 4.1: WS_Normalized vs page size (4KB = 1.00)",
		"Program", "8KB", "16KB", "32KB", "64KB")
	sums := make([]float64, len(shifts))
	for i, s := range specs {
		ladder, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		row := []string{s.Name}
		for j, sh := range shifts {
			n, err := normAt(ladder, sh)
			if err != nil {
				return nil, err
			}
			sums[j] += n
			row = append(row, tableio.F(n, 2))
		}
		tbl.Row(row...)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, tableio.F(s/float64(len(specs)), 2))
	}
	tbl.Row(avg...)
	tbl.Note("Paper averages at T=10M: 32KB ≈ 1.67, 64KB ≈ 2.03.")
	return tbl, nil
}

// Fig42 reproduces Figure 4.2: WS_Normalized for 8/16/32KB single sizes
// against the dynamic 4KB/32KB scheme.
func Fig42(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	shifts := []uint{addr.Shift8K, addr.Shift16K, addr.Shift32K}
	type row struct {
		ladder *engine.Future[*core.Result]
		two    *engine.Future[*core.Result]
	}
	rows := make([]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		rows[i].ladder = staticWSS(ctx, o, s, refs, uint64(T))
		rows[i].two = twoSizeWSS(ctx, o, s, refs, T)
	}
	tbl := tableio.New("Figure 4.2: WS_Normalized, single sizes vs 4KB/32KB",
		"Program", "8KB", "16KB", "32KB", "4KB/32KB")
	sums := make([]float64, 4)
	for i, s := range specs {
		ladder, err := rows[i].ladder.Wait(ctx)
		if err != nil {
			return nil, err
		}
		twoRes, err := rows[i].two.Wait(ctx)
		if err != nil {
			return nil, err
		}
		base := ladder.StaticWSS[engine.StaticIndex(addr.Shift4K)].AvgBytes
		row := []string{s.Name}
		for j, sh := range shifts {
			n, err := normAt(ladder, sh)
			if err != nil {
				return nil, err
			}
			sums[j] += n
			row = append(row, tableio.F(n, 2))
		}
		two := metrics.WSNormalized(twoRes.WSS.AvgBytes, base)
		sums[3] += two
		row = append(row, tableio.F(two, 2))
		tbl.Row(row...)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, tableio.F(s/float64(len(specs)), 2))
	}
	tbl.Row(avg...)
	tbl.Note("Paper: two-page scheme costs 1.01-1.22 (avg ~1.1), below even the 8KB single size.")
	return tbl, nil
}

// SensitivityT reproduces the Section 4 claim that the working-set
// trends are insensitive to T, sweeping T over half/nominal/double.
func SensitivityT(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	type row struct {
		ladders []*engine.Future[*core.Result]
		twos    []*engine.Future[*core.Result]
	}
	rows := make([]row, len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		for _, t := range []int{T / 2, T, 2 * T} {
			// The nominal-T units are shared with fig4.1/fig4.2; only
			// the halved and doubled windows cost extra passes.
			rows[i].ladders = append(rows[i].ladders, staticWSS(ctx, o, s, refs, uint64(t)))
			rows[i].twos = append(rows[i].twos, twoSizeWSS(ctx, o, s, refs, t))
		}
	}
	tbl := tableio.New("Section 4: WS_Normalized sensitivity to the window T",
		"Program", "32KB@T/2", "32KB@T", "32KB@2T", "two@T/2", "two@T", "two@2T")
	for i, s := range specs {
		norm32 := make([]float64, 3)
		normTwo := make([]float64, 3)
		for j := 0; j < 3; j++ {
			ladder, err := rows[i].ladders[j].Wait(ctx)
			if err != nil {
				return nil, err
			}
			norm32[j], err = normAt(ladder, addr.Shift32K)
			if err != nil {
				return nil, err
			}
			twoRes, err := rows[i].twos[j].Wait(ctx)
			if err != nil {
				return nil, err
			}
			normTwo[j] = metrics.WSNormalized(twoRes.WSS.AvgBytes,
				ladder.StaticWSS[engine.StaticIndex(addr.Shift4K)].AvgBytes)
		}
		tbl.Row(s.Name,
			tableio.F(norm32[0], 2), tableio.F(norm32[1], 2), tableio.F(norm32[2], 2),
			tableio.F(normTwo[0], 2), tableio.F(normTwo[1], 2), tableio.F(normTwo[2], 2))
	}
	tbl.Note("Paper: qualitative trend unchanged for T in {10M, 25M, 50M}; two-page cost varies only a few percent.")
	return tbl, nil
}

package experiments

import (
	"context"

	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// phasedSource builds a program whose behaviour changes mid-run: a
// dense matrix phase over one region, then a phase that revisits the
// *same region sparsely* (a few blocks per chunk) while doing fresh
// work elsewhere. The revisits are what make demotion matter: the
// paper's policy demotes on access when a chunk's windowed activity
// falls below the threshold, reclaiming the internal fragmentation the
// dense phase left behind; a promote-forever policy keeps mapping
// 32KB for every chunk the matrix ever touched.
func phasedSource(refsPerPhase uint64) trace.Reader {
	dense := workload.MustParse("phase-dense", refsPerPhase, `
dpi 0.4
colwalk base=16M rows=300 cols=300 rowbytes=2400 elem=8 weight=0.5
seq     base=16M size=720000 stride=8 weight=0.5
`)
	// Sparse revisit: scattered single blocks inside the 16M region the
	// dense phase promoted, plus a fresh hot region.
	sparse := workload.MustParse("phase-sparse", refsPerPhase, `
dpi 0.35
clusters base=16M span=704K n=20 size=4K align=8 hot=0.3 hotprob=0.7 burst=12 weight=0.6
uniform  base=64M size=64K align=8 weight=0.4
`)
	return trace.NewConcat(dense, sparse)
}

// Phases compares the dynamic policy with and without demotion, and the
// cumulative promote-once policy, on the phased program. The paper
// assigns page sizes "dynamically during the simulation, looking at the
// last T references"; this experiment shows what the dynamic window
// buys: once the dense phase's activity leaves the window, sparse
// revisits demote those chunks and the working set shrinks back, while
// promote-forever policies keep paying 32KB per chunk for a handful of
// live blocks.
func Phases(ctx context.Context, o *Options) (*tableio.Table, error) {
	refsPerPhase := refsFor(workload.Spec{DefaultRefs: 3_000_000}, o.Scale)
	T := windowFor(refsPerPhase)

	names := []string{"dynamic (demote on)", "dynamic (demote off)", "cumulative"}
	demoteOff := policy.DefaultTwoSizeConfig(T)
	demoteOff.Demote = false
	// The three variants share one read of the phased stream.
	fut := engine.Go(o.Engine, ctx, "phases", func(ctx context.Context) ([]*core.Result, error) {
		return core.RunMany(ctx, phasedSource(refsPerPhase), []*core.Simulator{
			policyVariantSim(policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)), T),
			policyVariantSim(policy.NewTwoSize(demoteOff), T),
			policyVariantSim(promoteOnce(), T),
		})
	})
	tbl := tableio.New("Extension: phased program (dense region later revisited sparsely), 16-entry FA",
		"Policy", "CPI_TLB", "avg WSS", "promos", "demos")
	results, err := fut.Wait(ctx)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res := results[i]
		tbl.Row(name,
			tableio.F(res.TLBs[0].CPITLB, 3),
			tableio.F(res.WSS.AvgBytes/(1<<20), 2)+"MB",
			tableio.F(float64(res.Counters.Promotions), 0),
			tableio.F(float64(res.Counters.Demotions), 0))
	}
	tbl.Note("Demotion trades a little CPI (sparse revisits lose their 32KB mappings) for working-set honesty.")
	return tbl, nil
}

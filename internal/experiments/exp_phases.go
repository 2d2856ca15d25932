package experiments

import (
	"context"

	"twopage/internal/addr"
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

// phasesRun is one policy variant's outcome on the phased program.
type phasesRun struct {
	cpi, avgWSS   float64
	promos, demos uint64
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
	mkPol := []func() policy.MultiSize{
		func() policy.MultiSize { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)) },
		func() policy.MultiSize {
			demoteOff := policy.DefaultTwoSizeConfig(T)
			demoteOff.Demote = false
			return policy.NewTwoSize(demoteOff)
		},
		func() policy.MultiSize {
			return policy.NewCumulative(policy.CumulativeConfig{Threshold: addr.BlocksPerChunk / 2})
		},
	}
	futs := make([]*engine.Future[phasesRun], len(mkPol))
	for i, mk := range mkPol {
		mk := mk
		futs[i] = engine.Go(o.Engine, ctx, "phases "+names[i],
			func(ctx context.Context) (phasesRun, error) {
				res, err := policyVariantSim(mk(), T).Run(ctx, phasedSource(refsPerPhase))
				if err != nil {
					return phasesRun{}, err
				}
				st := res.PolicyStats
				return phasesRun{cpi: res.TLBs[0].CPITLB, avgWSS: res.WSS.AvgBytes,
					promos: st.Promotions, demos: st.Demotions}, nil
			})
	}
	tbl := tableio.New("Extension: phased program (dense region later revisited sparsely), 16-entry FA",
		"Policy", "CPI_TLB", "avg WSS", "promos", "demos")
	for i, name := range names {
		run, err := futs[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		tbl.Row(name,
			tableio.F(run.cpi, 3),
			tableio.F(run.avgWSS/(1<<20), 2)+"MB",
			tableio.F(float64(run.promos), 0),
			tableio.F(float64(run.demos), 0))
	}
	tbl.Note("Demotion trades a little CPI (sparse revisits lose their 32KB mappings) for working-set honesty.")
	return tbl, nil
}

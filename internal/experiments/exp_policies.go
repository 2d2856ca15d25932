package experiments

import (
	"context"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
)

// policyVariantSim builds the core pass that drives one page-size
// policy: a 16-entry fully associative TLB, and the working set sampled
// over the last T references (wss.Sampled, every 256 references; the
// exact calculator serves only the paper's TwoSize policy).
func policyVariantSim(pol policy.MultiSize, T int) *core.Simulator {
	return core.NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(16)}, core.WithSampledWSS(T))
}

// promoteOnce builds the "less dynamic information" policy: a 4KB/32KB
// Napot that promotes a chunk once half its blocks have ever been
// touched (the paper's threshold with no window) and never demotes.
func promoteOnce() *policy.Napot {
	return policy.NewNapot(policy.NapotConfig{
		Classes:    addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift),
		Thresholds: []int{addr.BlocksPerChunk / 2},
	})
}

// oracleChunks derives static large-page hints from a stream's
// footprint, its distinct 4KB blocks in ascending order: chunks whose
// whole-trace density meets the paper's threshold become large — the
// "reorganizing code and data" best case, with perfect knowledge.
func oracleChunks(footprint []addr.PN) []addr.PN {
	var large []addr.PN
	for i := 0; i < len(footprint); {
		c := addr.ChunkOfBlock(footprint[i])
		j := i + 1
		for j < len(footprint) && addr.ChunkOfBlock(footprint[j]) == c {
			j++
		}
		if j-i >= addr.BlocksPerChunk/2 {
			large = append(large, c)
		}
		i = j
	}
	return large
}

// Policies compares page-size assignment policies — the axis the
// paper's conclusion flags as its biggest unknown: the dynamic windowed
// policy (Section 3.4), a static-hint oracle (profile-derived large
// regions; "reorganizing code and data", the better case), and a
// cumulative promote-once policy ("less dynamic information", the
// worse case).
//
// The oracle variant needs the static unit's footprint, so the
// experiment stages its submissions: all static units first, then each
// workload's three variants as its footprint lands.
func Policies(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	ladders := make([]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		ladders[i] = staticWSS(ctx, o, s, refs, uint64(windowFor(refs)))
	}
	variants := make([][]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		ladder, err := ladders[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		large := oracleChunks(ladder.Footprint)
		mkPol := []func() policy.MultiSize{
			func() policy.MultiSize { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)) },
			func() policy.MultiSize { return policy.NewRegion(large) },
			func() policy.MultiSize { return promoteOnce() },
		}
		names := []string{"dyn", "static", "cumul"}
		for j, mk := range mkPol {
			variants[i] = append(variants[i], o.Engine.Ride(ctx, "policies "+s.Name+" "+names[j], s.Name, refs,
				func() (*core.Simulator, error) {
					return policyVariantSim(mk(), T), nil
				}))
		}
	}
	tbl := tableio.New("Extension: page-size assignment policies (16-entry FA, 25-cycle penalty)",
		"Program", "CPI dyn", "CPI static", "CPI cumul", "WSn dyn", "WSn static", "WSn cumul", "lg% dyn/st/cu")
	for i, s := range specs {
		ladder, err := ladders[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		base := ladder.StaticWSS[engine.StaticIndex(addr.Shift4K)].AvgBytes
		var cpis, wsns, lgs []float64
		for _, f := range variants[i] {
			res, err := f.Wait(ctx)
			if err != nil {
				return nil, err
			}
			// Each reference probes the one TLB once, with its own page,
			// so the TLB's class-1 traffic counts the large references.
			var lg float64
			if st := res.TLBs[0].Stats; res.Refs > 0 {
				lg = float64(st.HitsByClass[1]+st.MissesByClass[1]) / float64(res.Refs)
			}
			cpis = append(cpis, res.TLBs[0].CPITLB)
			wsns = append(wsns, res.WSS.AvgBytes/base)
			lgs = append(lgs, 100*lg)
		}
		tbl.Row(s.Name,
			tableio.F(cpis[0], 3), tableio.F(cpis[1], 3), tableio.F(cpis[2], 3),
			tableio.F(wsns[0], 2), tableio.F(wsns[1], 2), tableio.F(wsns[2], 2),
			tableio.F(lgs[0], 0)+"/"+tableio.F(lgs[1], 0)+"/"+tableio.F(lgs[2], 0))
	}
	tbl.Note("static = profile-derived large regions (oracle); cumul = promote-once on lifetime touches, never demote.")
	return tbl, nil
}

package experiments

import (
	"context"
	"sort"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
	"twopage/internal/wss"
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

// oracleRegions derives static large-page hints from a profiling pass:
// chunks whose whole-trace density meets the paper's threshold become
// large regions — the "reorganizing code and data" best case, with
// perfect knowledge.
func oracleRegions(ctx context.Context, s workload.Spec, refs uint64) ([]policy.Range, error) {
	blocks := map[addr.PN]bool{}
	if _, err := trace.DrainContext(ctx, s.New(refs), func(batch []trace.Ref) {
		for _, ref := range batch {
			blocks[addr.Block(ref.Addr)] = true
		}
	}); err != nil {
		return nil, err
	}
	dense := map[addr.PN]int{}
	//paperlint:ignore determinism count increments are order-independent
	for b := range blocks {
		dense[addr.ChunkOfBlock(b)]++
	}
	chunks := make([]addr.PN, 0, len(dense))
	for c := range dense {
		chunks = append(chunks, c)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	var ranges []policy.Range
	for _, c := range chunks {
		if dense[c] >= addr.BlocksPerChunk/2 {
			ranges = append(ranges, policy.Range{
				Start: addr.VA(uint64(c) << addr.ChunkShift),
				End:   addr.VA((uint64(c) + 1) << addr.ChunkShift),
			})
		}
	}
	return ranges, nil
}

// Policies compares page-size assignment policies — the axis the
// paper's conclusion flags as its biggest unknown: the dynamic windowed
// policy (Section 3.4), a static-hint oracle (profile-derived large
// regions; "reorganizing code and data", the better case), and a
// cumulative promote-once policy ("less dynamic information", the
// worse case).
//
// The oracle variant needs the profiling pass's regions, so the
// experiment stages its submissions: all profiles first, then each
// workload's three variants as its profile lands.
func Policies(ctx context.Context, o *Options) (*tableio.Table, error) {
	specs, err := o.ablationSpecs()
	if err != nil {
		return nil, err
	}
	ladders := make([]*engine.Future[[]wss.Result], len(specs))
	profiles := make([]*engine.Future[[]policy.Range], len(specs))
	for i, s := range specs {
		s := s
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		ladders[i] = staticWSS(ctx, o, s, refs, uint64(T))
		profiles[i] = engine.Go(o.Engine, ctx, "policies profile "+s.Name,
			func(ctx context.Context) ([]policy.Range, error) {
				return oracleRegions(ctx, s, refs)
			})
	}
	variants := make([][]*engine.Future[*core.Result], len(specs))
	for i, s := range specs {
		refs := refsFor(s, o.Scale)
		T := windowFor(refs)
		ranges, err := profiles[i].Wait(ctx)
		if err != nil {
			return nil, err
		}
		mkPol := []func() (policy.MultiSize, error){
			func() (policy.MultiSize, error) {
				return policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)), nil
			},
			func() (policy.MultiSize, error) {
				return policy.NewRegion(policy.RegionConfig{LargeRegions: ranges})
			},
			func() (policy.MultiSize, error) {
				return promoteOnce(), nil
			},
		}
		names := []string{"dyn", "static", "cumul"}
		for j, mk := range mkPol {
			variants[i] = append(variants[i], o.Engine.Ride(ctx, "policies "+s.Name+" "+names[j], s.Name, refs,
				func() (*core.Simulator, error) {
					pol, err := mk()
					if err != nil {
						return nil, err
					}
					return policyVariantSim(pol, T), nil
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
		base := ladder[engine.StaticIndex(addr.Shift4K)].AvgBytes
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

package experiments

import (
	"context"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// runPolicyVariant runs its policy through core, whose TLB keeps up
// with the policy: a demotion drops the chunk's 32KB entry, so a chunk
// promoted again misses on its new large page instead of hitting the
// stale translation. Attaching the sampled working set must leave
// core's FA16 counters as they are without it.
func TestPolicyVariantInvalidatesOnDemote(t *testing.T) {
	const chunkA, blockB = addr.VA(0x100000), addr.VA(0x200000)
	block := func(i int) trace.Ref {
		return trace.Ref{Addr: chunkA + addr.VA(i)*addr.BlockSize, Kind: trace.Instr}
	}
	var refs []trace.Ref
	// Four blocks of chunk A promote it on the fourth.
	for i := 0; i < 4; i++ {
		refs = append(refs, block(i))
	}
	// A window of one block elsewhere, then A's first block: one active
	// block is below the threshold, so A is demoted.
	for i := 0; i < 16; i++ {
		refs = append(refs, trace.Ref{Addr: blockB, Kind: trace.Instr})
	}
	refs = append(refs, block(0))
	// Three more blocks promote A again.
	for i := 1; i < 4; i++ {
		refs = append(refs, block(i))
	}

	cfg := policy.TwoSizeConfig{T: 16, Threshold: 4, Demote: true, LargeShift: addr.ChunkShift}
	sim := core.NewSimulator(policy.NewTwoSize(cfg), []tlb.TLB{tlb.NewFullyAssoc(16)})
	want, err := sim.Run(context.Background(), trace.NewSliceReader(refs))
	if err != nil {
		t.Fatal(err)
	}
	if ps := want.PolicyStats; ps.Promotions != 2 || ps.Demotions != 1 {
		t.Fatalf("stream made %d promotions and %d demotions, want 2 and 1", ps.Promotions, ps.Demotions)
	}
	// Four small and one large miss, B's one miss, then after the
	// demotion three small misses and the re-promoted chunk's miss.
	if m := want.TLBs[0].Stats.Misses(); m != 9 {
		t.Fatalf("core's FA16 missed %d times, want 9", m)
	}
	got, err := runPolicyVariant(context.Background(), trace.NewSliceReader(refs), policy.NewTwoSize(cfg), cfg.T)
	if err != nil {
		t.Fatal(err)
	}
	if got.TLBs[0].Stats != want.TLBs[0].Stats || got.TLBs[0].CPITLB != want.TLBs[0].CPITLB {
		t.Fatalf("with the sampler: %+v (CPI_TLB %v), without: %+v (CPI_TLB %v)",
			got.TLBs[0].Stats, got.TLBs[0].CPITLB, want.TLBs[0].Stats, want.TLBs[0].CPITLB)
	}
	if *got.PolicyStats != *want.PolicyStats {
		t.Fatalf("policy stats with the sampler %+v, without %+v", *got.PolicyStats, *want.PolicyStats)
	}
	if got.WSS == nil {
		t.Fatal("runPolicyVariant reported no working set")
	}
}

package experiments

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/tworef"
	"twopage/internal/workload"
)

// policyVariantSim runs its policy through core, whose TLB keeps up
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
	got, err := policyVariantSim(policy.NewTwoSize(cfg), cfg.T).Run(context.Background(), trace.NewSliceReader(refs))
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
		t.Fatal("policyVariantSim reported no working set")
	}
}

// policies' oracle chunks and protect's protection profile come from
// the static unit's footprint; they must equal what the map-based
// derivations over the stream's distinct blocks gave, which this test
// keeps as its reference. li and worm hold no chunk at exactly the
// threshold, so a synthetic footprint covers every density.
func TestProfilesFromFootprint(t *testing.T) {
	check := func(name string, blocks map[addr.PN]bool, footprint []addr.PN) {
		t.Helper()
		var sorted []addr.PN
		dense := map[addr.PN]int{}
		for b := range blocks {
			sorted = append(sorted, b)
			dense[addr.ChunkOfBlock(b)]++
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var chunks, wantLarge []addr.PN
		for c := range dense {
			chunks = append(chunks, c)
		}
		sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
		for _, c := range chunks {
			if dense[c] >= addr.BlocksPerChunk/2 {
				wantLarge = append(wantLarge, c)
			}
		}
		if got := oracleChunks(footprint); len(wantLarge) == 0 || !reflect.DeepEqual(got, wantLarge) {
			t.Errorf("%s: oracle chunks %v, want %v", name, got, wantLarge)
		}
		want := map[addr.PN]bool{}
		for i := 0; i < len(sorted); i += 16 {
			want[sorted[i]] = true
		}
		if got := protectedBlocks(footprint); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d protected blocks, want %d", name, len(got), len(want))
		}
	}

	// Chunk c holds c of its blocks, for every density from 1 to full.
	synth := map[addr.PN]bool{}
	var footprint []addr.PN
	for c := addr.PN(1); c <= addr.BlocksPerChunk; c++ {
		for b := addr.FirstBlock(c); b < addr.FirstBlock(c)+c; b++ {
			synth[b] = true
			footprint = append(footprint, b)
		}
	}
	check("synthetic", synth, footprint)

	const refs = 200_000
	ctx := context.Background()
	e := engine.New(1)
	for _, name := range []string{"li", "worm"} {
		static, err := e.StaticWSS(ctx, engine.StaticWSSUnit{Workload: name, Refs: refs, T: refs / 8}).Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		blocks := map[addr.PN]bool{}
		if _, err := trace.DrainContext(ctx, workload.MustNew(name, refs), func(batch []trace.Ref) {
			for _, ref := range batch {
				blocks[addr.Block(ref.Addr)] = true
			}
		}); err != nil {
			t.Fatal(err)
		}
		check(name, blocks, static.Footprint)
	}
}

// boundarySpec touches 24 chunks with exactly 3, 4 and 5 distinct 4KB
// blocks each (a 12KB, 16KB or 20KB cluster in its own 32KB chunk),
// beside a one-function code stream. li and worm hold no chunk at
// exactly the paper's threshold of 4, so only a stream like this one
// tells "half or more" from "more than half".
const boundarySpec = `
code funcs=1 body=1024 visit=4096 spacing=4K
dpi 0.35
clusters base=512M span=8M n=24 size=12K hot=1 hotprob=1 burst=8 weight=1
clusters base=544M span=8M n=24 size=16K hot=1 hotprob=1 burst=8 weight=1
clusters base=576M span=8M n=24 size=20K hot=1 hotprob=1 burst=8 weight=1
`

// TestHalfOrMoreBoundary pins the promotion threshold at its boundary:
// with a window as long as the stream, the windowed policy, its frozen
// oracle, the promote-once policy and the static oracle all map large
// exactly the chunks that hold 4 or 5 of their 8 blocks, never those
// that hold 3.
func TestHalfOrMoreBoundary(t *testing.T) {
	const refs = 200_000
	stream := func() trace.Reader { return workload.MustParse("boundary", refs, boundarySpec) }

	seen := map[addr.PN]bool{}
	if _, err := trace.Drain(stream(), func(batch []trace.Ref) {
		for _, ref := range batch {
			seen[addr.Block(ref.Addr)] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	var footprint []addr.PN
	density := map[addr.PN]int{}
	for b := range seen {
		footprint = append(footprint, b)
		density[addr.ChunkOfBlock(b)]++
	}
	sort.Slice(footprint, func(i, j int) bool { return footprint[i] < footprint[j] })
	chunksOf := map[int]int{} // blocks held -> chunks holding that many
	var want []addr.PN
	for c, n := range density {
		chunksOf[n]++
		if n >= addr.BlocksPerChunk/2 {
			want = append(want, c)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if chunksOf[3] != 24 || chunksOf[4] != 24 || chunksOf[5] != 24 {
		t.Fatalf("chunks by blocks held %v, want 24 each of 3, 4 and 5", chunksOf)
	}

	promoted := func(assign func(addr.VA) policy.Result) []addr.PN {
		var got []addr.PN
		if _, err := trace.Drain(stream(), func(batch []trace.Ref) {
			for _, ref := range batch {
				if res := assign(ref.Addr); res.Event == policy.EventPromote {
					got = append(got, res.Chunk)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		return got
	}
	cfg := policy.DefaultTwoSizeConfig(refs)
	for name, got := range map[string][]addr.PN{
		"TwoSize":        promoted(policy.NewTwoSize(cfg).Assign),
		"tworef.TwoSize": promoted(tworef.NewTwoSize(cfg).Assign),
		"promoteOnce":    promoted(promoteOnce().Assign),
		"oracleChunks":   oracleChunks(footprint),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s maps %d chunks large, want the %d with 4 or more blocks:\n got %v\nwant %v",
				name, len(got), len(want), got, want)
		}
	}
}

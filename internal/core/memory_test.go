package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/disk"
	"twopage/internal/pagetable"
	"twopage/internal/physmem"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

// memSim builds a simulator with a memory stage behind one TLB.
func memSim(t *testing.T, pol policy.Assigner, tl tlb.TLB, m Memory) *Simulator {
	t.Helper()
	s := NewSimulator(pol, []tlb.TLB{tl}, WithMemory(m))
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s
}

// twoSizeMem is the two-page policy with window T behind a 16-entry
// fully associative TLB, over memKB of memory.
func twoSizeMem(t *testing.T, memKB, T int) *Simulator {
	t.Helper()
	return memSim(t, policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)),
		tlb.NewFullyAssoc(16), Memory{Size: addr.PageSize(memKB * 1024)})
}

// access drives references through the simulator's loop, as Run does,
// and returns the cycles they cost.
func access(t *testing.T, s *Simulator, vas ...addr.VA) float64 {
	t.Helper()
	before := s.mem.stats.Cycles
	refs := make([]trace.Ref, len(vas))
	for i, va := range vas {
		refs[i] = trace.Ref{Addr: va, Kind: trace.Load}
	}
	if _, _, err := s.drain(context.Background(), trace.NewSliceReader(refs), false); err != nil {
		t.Fatal(err)
	}
	return s.mem.stats.Cycles - before
}

// residentPages counts the pages in the replacement clock.
func residentPages(s *Simulator) int { return s.mem.where.Len() }

// checkFrames fails the test unless free frames plus the frames of
// resident pages make up all of memory.
func checkFrames(t *testing.T, s *Simulator) {
	t.Helper()
	var held uint64
	for _, e := range s.mem.clock {
		if e.valid {
			held += uint64(1) << (e.page.Shift - addr.BlockShift)
		}
	}
	a := s.mem.alloc
	if a.FreeFrames()+held != a.TotalFrames() {
		t.Fatalf("frame conservation violated: free %d + resident %d != total %d",
			a.FreeFrames(), held, a.TotalFrames())
	}
}

func TestMemoryConfigValidation(t *testing.T) {
	small := func() policy.Assigner { return policy.NewSingle(addr.Size4K) }
	fa := func() []tlb.TLB { return []tlb.TLB{tlb.NewFullyAssoc(4)} }
	three := addr.MustShiftClasses(addr.Shift4K, addr.Shift32K, addr.Shift256K)
	mem := Memory{Size: addr.Size32K}
	badDisk := disk.Model{MBPerSec: 0}
	tests := []struct {
		name    string
		pol     policy.Assigner
		tlbs    []tlb.TLB
		m       Memory
		wantErr string // substring of Run's error; empty for a valid configuration
	}{
		{name: "no TLB", pol: small(), m: mem, wantErr: "TLB"},
		{name: "no policy", tlbs: fa(), m: mem, wantErr: "policy"},
		{name: "memory not a multiple of 32KB", pol: small(), tlbs: fa(), m: Memory{Size: 1000}, wantErr: "32KB"},
		{name: "memory above the maximum", pol: small(), tlbs: fa(), m: Memory{Size: physmem.MaxSize + addr.Size32K}, wantErr: "maximum"},
		{name: "16KB large pages", tlbs: fa(), m: mem, wantErr: "hierarchy",
			pol: policy.NewTwoSize(policy.TwoSizeConfig{T: 10, Threshold: 2, LargeShift: addr.Shift16K})},
		{name: "three sizes", tlbs: fa(), m: mem, wantErr: "hierarchy",
			pol: policy.NewLadder(policy.DefaultLadderConfig(10, three))},
		// The table maps 4KB blocks and 32KB chunks; a page of any other
		// size would be filed under the wrong number and fault forever.
		{name: "8KB pages", pol: policy.NewSingle(addr.Size8K), tlbs: fa(), m: mem, wantErr: "4KB or 32KB"},
		{name: "16KB pages", pol: policy.NewSingle(addr.Size16K), tlbs: fa(), m: mem, wantErr: "4KB or 32KB"},
		{name: "64KB pages", pol: policy.NewSingle(addr.Size64K), tlbs: fa(), m: mem, wantErr: "4KB or 32KB"},
		// A negative or non-finite fault cost would turn cycles per
		// reference negative or NaN instead of failing.
		{name: "FaultCycles -100", pol: small(), tlbs: fa(), m: Memory{Size: addr.Size32K, FaultCycles: -100}, wantErr: "FaultCycles"},
		{name: "FaultCycles NaN", pol: small(), tlbs: fa(), m: Memory{Size: addr.Size32K, FaultCycles: math.NaN()}, wantErr: "FaultCycles"},
		{name: "FaultCycles +Inf", pol: small(), tlbs: fa(), m: Memory{Size: addr.Size32K, FaultCycles: math.Inf(1)}, wantErr: "FaultCycles"},
		{name: "FaultCycles -Inf", pol: small(), tlbs: fa(), m: Memory{Size: addr.Size32K, FaultCycles: math.Inf(-1)}, wantErr: "FaultCycles"},
		{name: "invalid disk model", pol: small(), tlbs: fa(), m: Memory{Size: addr.Size32K, Disk: &badDisk}, wantErr: "disk"},
		{name: "4KB pages", pol: small(), tlbs: fa(), m: mem},
		{name: "32KB pages", pol: policy.NewSingle(addr.Size32K), tlbs: fa(), m: mem},
		{name: "two sizes", pol: policy.NewTwoSize(policy.DefaultTwoSizeConfig(10)), tlbs: fa(), m: mem},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSimulator(tc.pol, tc.tlbs, WithMemory(tc.m))
			_, err := sim.Run(context.Background(), trace.NewSliceReader(makeTrace(50, 4)))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error = %v, want one naming %q", err, tc.wantErr)
			}
		})
	}
}

// The memory stage has no warm-up roll-back and owns the page table,
// so Warm, WithPageTable and WithWalkModel are configuration errors.
func TestMemoryStageExclusions(t *testing.T) {
	two := func() policy.Assigner { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(100)) }
	fa := func() []tlb.TLB { return []tlb.TLB{tlb.NewFullyAssoc(8)} }
	mem := WithMemory(Memory{Size: 1 << 20})
	refs := makeTrace(50, 4)
	ctx := context.Background()

	sim := NewSimulator(two(), fa(), mem)
	if err := sim.Warm(ctx, trace.NewSliceReader(refs)); err == nil || !strings.Contains(err.Error(), "Warm") {
		t.Errorf("Warm error = %v, want one naming Warm", err)
	}
	if _, err := sim.Run(ctx, trace.NewSliceReader(refs)); err == nil {
		t.Error("Run after a rejected Warm succeeded")
	}

	for _, opts := range [][]Option{
		{mem, WithPageTable()},
		{WithPageTable(), mem},
		{mem, WithWalkModel(walk.Config{MissCycles: 24})},
		{WithWalkModel(walk.Config{MissCycles: 24}), mem},
	} {
		_, err := NewSimulator(two(), fa(), opts...).Run(ctx, trace.NewSliceReader(refs))
		if err == nil || !strings.Contains(err.Error(), "WithMemory") {
			t.Errorf("Run error = %v, want one naming WithMemory", err)
		}
	}
}

func TestMemoryColdAccessFaultsThenHits(t *testing.T) {
	s := twoSizeMem(t, 1024, 1000)
	c1 := access(t, s, 0x1000)
	st := s.counts()
	if st.PageTable.Misses != 1 || st.TLBs[0].Stats.Misses() != 1 {
		t.Fatalf("after a cold access: %d faults, %d TLB misses, want 1 and 1",
			st.PageTable.Misses, st.TLBs[0].Stats.Misses())
	}
	if c1 < defaultFaultCycles {
		t.Fatalf("cold access cost %v should include the fault", c1)
	}
	if c2 := access(t, s, 0x1000); c2 != tlbHitCycles {
		t.Fatalf("warm access cost %v, want %v", c2, tlbHitCycles)
	}
	if residentPages(s) != 1 {
		t.Fatalf("resident = %d", residentPages(s))
	}
}

// A 2-entry TLB: the third page evicts the first from the TLB, but its
// mapping stays resident, so the re-access costs a walk, not a fault.
func TestMemoryWalkHitAfterTLBEviction(t *testing.T) {
	s := memSim(t, policy.NewSingle(addr.Size4K), tlb.NewFullyAssoc(2), Memory{Size: 1 << 20})
	access(t, s, 0x1000, 0x2000, 0x3000)
	// The stage keeps its 4KB/32KB table under a 4KB policy too, so the
	// refill pays the two-size handler's walk.
	if c := access(t, s, 0x1000); c != tlbHitCycles+pagetable.TwoSizeHandlerCycles() {
		t.Fatalf("refill cost %v cycles, want %v", c, tlbHitCycles+pagetable.TwoSizeHandlerCycles())
	}
	pt := s.counts().PageTable
	if pt.Misses != 3 {
		t.Fatalf("faults = %d, want 3", pt.Misses)
	}
	if hits := pt.Lookups - pt.Misses; hits != 1 {
		t.Fatalf("walk hits = %d, want 1 (TLB refill from the page table)", hits)
	}
}

func TestMemoryPromotionMovesResidency(t *testing.T) {
	s := twoSizeMem(t, 4096, 1000)
	for i := 0; i < 3; i++ {
		access(t, s, addr.VA(i*addr.BlockSize))
	}
	if residentPages(s) != 3 {
		t.Fatalf("resident = %d, want 3 small pages", residentPages(s))
	}
	// The fourth block triggers promotion: the resident small pages
	// collapse into one large page, so the reference finds the mapping
	// by a walk (the small TLB entries were shot down).
	access(t, s, addr.VA(3*addr.BlockSize))
	pt := s.counts().PageTable
	if pt.Promotions != 1 {
		t.Fatalf("promotions = %d", pt.Promotions)
	}
	if residentPages(s) != 1 {
		t.Fatalf("resident = %d after promotion, want 1 large page", residentPages(s))
	}
	if pt.CopiedBytes != 3*addr.BlockSize {
		t.Fatalf("copied = %d", pt.CopiedBytes)
	}
	// The whole chunk is now mapped: untouched block 7 walk-hits.
	access(t, s, addr.VA(7*addr.BlockSize))
	if got := s.counts().PageTable.Misses; got != pt.Misses {
		t.Fatalf("faults %d -> %d: access within the promoted chunk faulted", pt.Misses, got)
	}
}

func TestMemoryDemotionSplitsResidency(t *testing.T) {
	s := twoSizeMem(t, 4096, 8)
	for i := 0; i < 4; i++ {
		access(t, s, addr.VA(i*addr.BlockSize)) // promote chunk 0
	}
	if p := s.counts().PageTable.Promotions; p != 1 {
		t.Fatalf("promotions = %d", p)
	}
	// Age chunk 0 out of the tiny window, then touch it: demotion.
	for i := 0; i < 8; i++ {
		access(t, s, addr.VA(100<<addr.ChunkShift)+addr.VA(i*addr.BlockSize))
	}
	access(t, s, 0)
	if d := s.counts().PageTable.Demotions; d != 1 {
		t.Fatalf("demotions = %d", d)
	}
	// The large page split into 8 small resident pages (plus the
	// distant chunk's pages).
	if residentPages(s) < 8 {
		t.Fatalf("resident = %d after demotion", residentPages(s))
	}
}

// 64KB of memory is 16 small frames; touching 64 distinct pages must
// evict.
func TestMemoryReplacementUnderPressure(t *testing.T) {
	s := memSim(t, policy.NewSingle(addr.Size4K), tlb.NewFullyAssoc(8), Memory{Size: 64 << 10})
	for i := 0; i < 64; i++ {
		access(t, s, addr.VA(i*addr.BlockSize))
	}
	if s.counts().Memory.Evictions == 0 {
		t.Fatal("expected clock evictions under memory pressure")
	}
	if residentPages(s) > 16 {
		t.Fatalf("resident %d exceeds physical frames", residentPages(s))
	}
	checkFrames(t, s)
}

// Two-page policy under memory pressure: large allocations must succeed
// by evicting, and frames must be conserved through promotion and
// demotion churn.
func TestMemoryLargePagesUnderPressure(t *testing.T) {
	s := twoSizeMem(t, 128, 64) // 128KB = 4 chunks
	res, err := s.Run(context.Background(), workload.MustNew("li", 30_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 30_000 {
		t.Fatalf("refs = %d", res.Refs)
	}
	if res.Memory.Evictions == 0 {
		t.Fatal("li's working set exceeds 128KB; evictions expected")
	}
	checkFrames(t, s)
}

func TestMemoryRunWorkloadEndToEnd(t *testing.T) {
	res, err := twoSizeMem(t, 8192, 20_000).Run(context.Background(), workload.MustNew("matrix300", 200_000))
	if err != nil {
		t.Fatal(err)
	}
	ts, pt, c := res.TLBs[0].Stats, res.PageTable, res.Counters
	if res.Refs != 200_000 {
		t.Fatalf("refs = %d", res.Refs)
	}
	if ts.Hits()+ts.Misses() != res.Refs {
		t.Fatalf("hit/miss accounting: %d + %d != %d", ts.Hits(), ts.Misses(), res.Refs)
	}
	if pt.Lookups != ts.Misses() || pt.Misses > pt.Lookups {
		t.Fatalf("every miss should walk, and a fault is a walk: %+v, %d misses", *pt, ts.Misses())
	}
	if pt.Promotions == 0 {
		t.Fatal("matrix300 must promote")
	}
	// The run report counts the transitions the stage carried out.
	if c.PTWalks != pt.Lookups || c.Faults != pt.Misses || c.Promotions != pt.Promotions ||
		c.Demotions != pt.Demotions || c.CopiedBytes != pt.CopiedBytes ||
		c.BuddySplits != res.Memory.Buddy.Splits || c.BuddyPeakResident != res.Memory.Buddy.PeakResident {
		t.Fatalf("run report %+v disagrees with the stage's stats %+v, %+v", c, *pt, *res.Memory)
	}
	if res.CyclesPerRef() <= 1 {
		t.Fatalf("cycles per reference = %v", res.CyclesPerRef())
	}
	var zero Result
	if zero.CyclesPerRef() != 0 {
		t.Fatal("a result without a memory stage should report 0 cycles per reference")
	}
}

// With ample memory (no evictions) the memory stage's TLB sees exactly
// what the plain simulator's does: same misses for the same stream.
func TestMemoryAgreesWithPlainSimulator(t *testing.T) {
	const refs = 100_000
	const T = refs / 8
	ctx := context.Background()
	got, err := twoSizeMem(t, 16*1024, T).Run(ctx, workload.MustNew("li", refs))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)),
		[]tlb.TLB{tlb.NewFullyAssoc(16)}).Run(ctx, workload.MustNew("li", refs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Memory.Evictions != 0 {
		t.Fatalf("test premise broken: %d evictions with ample memory", got.Memory.Evictions)
	}
	if g, w := got.TLBs[0].Stats.Misses(), want.TLBs[0].Stats.Misses(); g != w {
		t.Fatalf("memory stage TLB misses %d != plain simulator %d", g, w)
	}
}

// Heavy residency churn exercises the clock's tombstone compaction and
// hand wrap-around; the invariants must survive.
func TestMemoryClockCompaction(t *testing.T) {
	s := memSim(t, policy.NewSingle(addr.Size4K), tlb.NewFullyAssoc(8), Memory{Size: 256 << 10}) // 64 frames
	pages := make([]addr.VA, 4000)
	for i := range pages {
		pages[i] = addr.VA(i * addr.BlockSize)
	}
	access(t, s, pages...)
	if ev := s.counts().Memory.Evictions; ev < 3000 {
		t.Fatalf("evictions = %d", ev)
	}
	if residentPages(s) > 64 {
		t.Fatalf("resident %d exceeds frames", residentPages(s))
	}
	checkFrames(t, s)
	// A recently touched page is still resident: no fault.
	before := s.counts().PageTable.Misses
	access(t, s, addr.VA(3999*addr.BlockSize))
	if s.counts().PageTable.Misses != before {
		t.Fatal("recently touched page should still be resident")
	}
}

// Demotion of a non-resident large page is a no-op, and the policy's
// subsequent small mapping faults in cleanly.
func TestMemoryDemoteNonResident(t *testing.T) {
	// Memory of exactly one chunk: a promoted chunk gets evicted, then
	// demoted by the policy while absent.
	s := memSim(t, policy.NewTwoSize(policy.DefaultTwoSizeConfig(8)), tlb.NewFullyAssoc(4), Memory{Size: addr.Size32K})
	for i := 0; i < 4; i++ { // promote chunk 0 (fills all of memory)
		access(t, s, addr.VA(i*addr.BlockSize))
	}
	// Touch a distant chunk: the large page must go to make room.
	for i := 0; i < 8; i++ {
		access(t, s, addr.VA(100<<addr.ChunkShift)+addr.VA(i%2*addr.BlockSize))
	}
	// Chunk 0 aged out; the next access demotes it (policy) while the
	// page table no longer holds it.
	access(t, s, 0)
	checkFrames(t, s)
}

// When memory cannot hold a second large frame, promotion attempts must
// fail gracefully.
func TestMemoryPromotionUnderImpossibleMemory(t *testing.T) {
	s := memSim(t, policy.NewTwoSize(policy.DefaultTwoSizeConfig(1000)), tlb.NewFullyAssoc(4), Memory{Size: addr.Size32K})
	// Promote chunk 0, then touch chunk 1 densely: its promotion needs a
	// second large frame that can only come from evicting chunk 0.
	for i := 0; i < 4; i++ {
		access(t, s, addr.VA(i*addr.BlockSize))
	}
	for i := 0; i < 4; i++ {
		access(t, s, addr.VA(addr.ChunkSize)+addr.VA(i*addr.BlockSize))
	}
	checkFrames(t, s)
	if residentPages(s) == 0 {
		t.Fatal("something should be resident")
	}
}

// With a disk model, faults pay positioning plus transfer and the
// paper's amortization shows: a large-page fault brings in 8x the bytes
// for barely more time.
func TestMemoryDiskModelFaultCosts(t *testing.T) {
	dm := disk.Default()
	mk := func(pol policy.Assigner) *Simulator {
		return memSim(t, pol, tlb.NewFullyAssoc(8), Memory{Size: 1 << 20, Disk: &dm})
	}
	// 8 small faults vs 1 large fault for the same 32KB of data.
	small := mk(policy.NewSingle(addr.Size4K))
	for i := 0; i < 8; i++ {
		access(t, small, addr.VA(i*addr.BlockSize))
	}
	large := mk(policy.NewSingle(addr.Size32K))
	access(t, large, 0)
	ss, ls := small.counts().Memory.IO, large.counts().Memory.IO
	if ss.PageIns != 8 || ls.PageIns != 1 {
		t.Fatalf("page-ins: %d vs %d", ss.PageIns, ls.PageIns)
	}
	if ss.BytesIn != ls.BytesIn {
		t.Fatalf("bytes differ: %d vs %d", ss.BytesIn, ls.BytesIn)
	}
	if ls.IOCycles*4 > ss.IOCycles {
		t.Fatalf("one 32KB fault (%v cycles) should be far below eight 4KB faults (%v)",
			ls.IOCycles, ss.IOCycles)
	}
	// A fault pays the disk's cost instead of the flat fault cost, on
	// top of the TLB probe and a one-level walk that finds nothing.
	walk := pagetable.TrapCycles + pagetable.SizeProbeCycles + pagetable.InsertCycles + pagetable.LoadCycles
	if got, want := large.mem.stats.Cycles, tlbHitCycles+walk+dm.PageInCycles(addr.Size32K); got != want {
		t.Fatalf("one large disk fault cost %v cycles, want %v", got, want)
	}
}

package mmu

import (
	"context"
	"math"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/disk"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

func newTwoSizeMMU(t *testing.T, memKB int, T int) *MMU {
	t.Helper()
	m, err := New(Config{
		TLB:    tlb.NewFullyAssoc(16),
		Policy: policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)),
		Memory: addr.PageSize(memKB * 1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing TLB should fail")
	}
	if _, err := New(Config{TLB: tlb.NewFullyAssoc(4)}); err == nil {
		t.Fatal("missing policy should fail")
	}
	if _, err := New(Config{
		TLB:    tlb.NewFullyAssoc(4),
		Policy: policy.NewSingle(addr.Size4K),
		Memory: addr.PageSize(1000),
	}); err == nil {
		t.Fatal("bad memory size should fail")
	}
	// Non-32KB large pages unsupported.
	cfg16 := policy.TwoSizeConfig{T: 10, Threshold: 2, LargeShift: addr.Shift16K}
	if _, err := New(Config{
		TLB:    tlb.NewFullyAssoc(4),
		Policy: policy.NewTwoSize(cfg16),
		Memory: addr.Size32K,
	}); err == nil {
		t.Fatal("16KB large pages should be rejected")
	}
	// A negative or non-finite fault cost would turn cycles/access
	// negative or NaN instead of failing.
	for _, fc := range []float64{-100, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := New(Config{
			TLB:         tlb.NewFullyAssoc(4),
			Policy:      policy.NewSingle(addr.Size4K),
			Memory:      addr.Size32K,
			FaultCycles: fc,
		})
		if err == nil || !strings.Contains(err.Error(), "FaultCycles") {
			t.Errorf("FaultCycles %v: err = %v, want an error naming FaultCycles", fc, err)
		}
	}
}

func TestColdAccessFaultsThenHits(t *testing.T) {
	m := newTwoSizeMMU(t, 1024, 1000)
	c1 := m.Access(0x1000)
	st := m.Stats()
	if st.Faults != 1 || st.TLBMisses != 1 {
		t.Fatalf("stats after cold access: %+v", st)
	}
	if c1 < m.cfg.FaultCycles {
		t.Fatalf("cold access cost %v should include the fault", c1)
	}
	c2 := m.Access(0x1000)
	if c2 != tlbHitCycles {
		t.Fatalf("warm access cost %v, want %v", c2, tlbHitCycles)
	}
	if m.Resident() != 1 {
		t.Fatalf("resident = %d", m.Resident())
	}
}

func TestMissWalkHitAfterTLBEviction(t *testing.T) {
	// 2-entry TLB: the third page evicts the first from the TLB but the
	// mapping stays resident, so re-access costs a walk, not a fault.
	m, err := New(Config{
		TLB:    tlb.NewFullyAssoc(2),
		Policy: policy.NewSingle(addr.Size4K),
		Memory: addr.PageSize(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []addr.VA{0x1000, 0x2000, 0x3000} {
		m.Access(va)
	}
	m.Access(0x1000)
	st := m.Stats()
	if st.Faults != 3 {
		t.Fatalf("faults = %d, want 3", st.Faults)
	}
	if st.WalkHits != 1 {
		t.Fatalf("walk hits = %d, want 1 (TLB refill from page table)", st.WalkHits)
	}
}

func TestPromotionMovesResidency(t *testing.T) {
	m := newTwoSizeMMU(t, 4096, 1000)
	// Touch 3 blocks: resident small pages.
	for i := 0; i < 3; i++ {
		m.Access(addr.VA(i * addr.BlockSize))
	}
	if m.Resident() != 3 {
		t.Fatalf("resident = %d", m.Resident())
	}
	// Fourth block triggers promotion: small pages collapse into one
	// large page; the triggering block then faults in as large... no:
	// promote copies resident blocks into the large frame, so the
	// reference finds the mapping via walk (TLB entries were shot down).
	m.Access(addr.VA(3 * addr.BlockSize))
	st := m.Stats()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d", st.Promotions)
	}
	if m.Resident() != 1 {
		t.Fatalf("resident = %d after promotion, want 1 large page", m.Resident())
	}
	if st.CopiedBytes != 3*addr.BlockSize {
		t.Fatalf("copied = %d", st.CopiedBytes)
	}
	// The whole chunk is now mapped: untouched block 7 walk-hits.
	before := m.Stats().Faults
	m.Access(addr.VA(7 * addr.BlockSize))
	if m.Stats().Faults != before {
		t.Fatal("access within promoted chunk should not fault")
	}
}

func TestDemotionSplitsResidency(t *testing.T) {
	m := newTwoSizeMMU(t, 4096, 8)
	for i := 0; i < 4; i++ {
		m.Access(addr.VA(i * addr.BlockSize)) // promote chunk 0
	}
	if m.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d", m.Stats().Promotions)
	}
	// Age chunk 0 out of the tiny window, then touch it: demotion.
	for i := 0; i < 8; i++ {
		m.Access(addr.VA(100<<addr.ChunkShift) + addr.VA(i*addr.BlockSize))
	}
	m.Access(0)
	st := m.Stats()
	if st.Demotions != 1 {
		t.Fatalf("demotions = %d", st.Demotions)
	}
	// Large page split into 8 small resident pages (plus the distant
	// chunk's pages).
	if m.Resident() < 8 {
		t.Fatalf("resident = %d after demotion", m.Resident())
	}
}

func TestReplacementUnderPressure(t *testing.T) {
	// 64KB of memory = 16 small frames; touch 64 distinct pages.
	m, err := New(Config{
		TLB:    tlb.NewFullyAssoc(8),
		Policy: policy.NewSingle(addr.Size4K),
		Memory: addr.PageSize(64 * 1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		m.Access(addr.VA(i * addr.BlockSize))
	}
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected clock evictions under memory pressure")
	}
	if m.Resident() > 16 {
		t.Fatalf("resident %d exceeds physical frames", m.Resident())
	}
	// Conservation: resident pages == allocated frames.
	if m.Memory().FreeFrames()+uint64(m.Resident()) != m.Memory().TotalFrames() {
		t.Fatalf("frame leak: free %d + resident %d != total %d",
			m.Memory().FreeFrames(), m.Resident(), m.Memory().TotalFrames())
	}
}

func TestLargePagesUnderPressure(t *testing.T) {
	// Two-page policy with memory pressure: large allocations must
	// succeed by evicting, and frames must be conserved, even with
	// promotion/demotion churn.
	m := newTwoSizeMMU(t, 128, 64) // 128KB = 4 chunks
	src := workload.MustNew("li", 30_000)
	if _, err := m.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Accesses != 30_000 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	if st.Evictions == 0 {
		t.Fatal("li's working set exceeds 128KB; evictions expected")
	}
	free := m.Memory().FreeFrames()
	residentFrames := residentFrames(m)
	if free+residentFrames != m.Memory().TotalFrames() {
		t.Fatalf("frame conservation violated: free %d + resident %d != %d",
			free, residentFrames, m.Memory().TotalFrames())
	}
}

func TestRunWorkloadEndToEnd(t *testing.T) {
	m := newTwoSizeMMU(t, 8192, 20_000)
	st, err := m.Run(context.Background(), workload.MustNew("matrix300", 200_000))
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 200_000 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	if st.TLBHits+st.TLBMisses != st.Accesses {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
	if st.Walks != st.TLBMisses {
		t.Fatalf("every miss should walk: %+v", st)
	}
	if st.WalkHits+st.Faults != st.Walks {
		t.Fatalf("walk accounting: %+v", st)
	}
	if st.Promotions == 0 {
		t.Fatal("matrix300 must promote")
	}
	if st.CyclesPerAccess() <= 1 {
		t.Fatalf("cycles/access = %v", st.CyclesPerAccess())
	}
	var zero Stats
	if zero.CyclesPerAccess() != 0 {
		t.Fatal("zero stats should report 0 cycles/access")
	}
}

// The MMU's TLB behaviour must agree with the standalone simulator when
// memory is ample (no evictions): same misses for the same stream.
func TestAgreesWithCoreSimulator(t *testing.T) {
	const refs = 100_000
	const T = refs / 8
	m := newTwoSizeMMU(t, 16*1024, T)
	if _, err := m.Run(context.Background(), workload.MustNew("li", refs)); err != nil {
		t.Fatal(err)
	}
	// Reference: same policy+TLB via direct loop.
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	tl := tlb.NewFullyAssoc(16)
	src := workload.MustNew("li", refs)
	buf := make([]trace.Ref, 4096)
	for {
		n, err := src.Read(buf)
		for _, ref := range buf[:n] {
			res := pol.Assign(ref.Addr)
			if res.Event == policy.EventPromote {
				first := addr.FirstBlock(res.Chunk)
				for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
					tl.Invalidate(policy.Page{Number: first + i, Shift: addr.BlockShift})
				}
			} else if res.Event == policy.EventDemote {
				tl.Invalidate(policy.Page{Number: res.Chunk, Shift: addr.ChunkShift})
			}
			tl.Access(ref.Addr, res.Page)
		}
		if err != nil {
			break
		}
	}
	if m.Stats().Evictions != 0 {
		t.Fatalf("test premise broken: %d evictions with ample memory", m.Stats().Evictions)
	}
	if got, want := m.Stats().TLBMisses, tl.Stats().Misses(); got != want {
		t.Fatalf("MMU TLB misses %d != standalone %d", got, want)
	}
}

// Heavy residency churn exercises the clock's tombstone compaction and
// hand wrap-around; invariants must survive.
func TestClockCompaction(t *testing.T) {
	m, err := New(Config{
		TLB:    tlb.NewFullyAssoc(8),
		Policy: policy.NewSingle(addr.Size4K),
		Memory: addr.PageSize(256 * 1024), // 64 frames
	})
	if err != nil {
		t.Fatal(err)
	}
	// Touch 4000 distinct pages: thousands of evictions and removals.
	for i := 0; i < 4000; i++ {
		m.Access(addr.VA(i * addr.BlockSize))
	}
	st := m.Stats()
	if st.Evictions < 3000 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if m.Resident() > 64 {
		t.Fatalf("resident %d exceeds frames", m.Resident())
	}
	if m.Memory().FreeFrames()+uint64(m.Resident()) != m.Memory().TotalFrames() {
		t.Fatal("frame conservation violated after churn")
	}
	// Everything resident is still reachable without faulting: walk hits.
	// (Touch a recent page that must still be mapped.)
	before := m.Stats().Faults
	m.Access(addr.VA(3999 * addr.BlockSize))
	if m.Stats().Faults != before {
		t.Fatal("recently touched page should still be resident")
	}
}

// Demotion of a non-resident large page is a no-op, and the policy's
// subsequent small mapping faults in cleanly.
func TestDemoteNonResident(t *testing.T) {
	// Tiny memory: a promoted chunk gets evicted, then demoted by the
	// policy while absent.
	cfg := policy.DefaultTwoSizeConfig(8)
	pol := policy.NewTwoSize(cfg)
	m, err := New(Config{
		TLB:    tlb.NewFullyAssoc(4),
		Policy: pol,
		Memory: addr.Size32K, // exactly one chunk of frames
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // promote chunk 0 (fills all of memory)
		m.Access(addr.VA(i * addr.BlockSize))
	}
	// Touch a distant chunk: must evict the large page to make room.
	for i := 0; i < 8; i++ {
		m.Access(addr.VA(100<<addr.ChunkShift) + addr.VA(i%2*addr.BlockSize))
	}
	// Chunk 0 aged out; next access demotes it (policy) while the page
	// table no longer holds it: the MMU must not corrupt state.
	m.Access(addr.VA(0))
	if m.Memory().FreeFrames()+residentFrames(m) != m.Memory().TotalFrames() {
		t.Fatal("frame conservation violated across non-resident demotion")
	}
}

func residentFrames(m *MMU) uint64 {
	var n uint64
	m.where.Iter(func(k, _ uint64) {
		if p := unpackKey(k); uint(p.Shift) >= addr.ChunkShift {
			n += addr.BlocksPerChunk
		} else {
			n++
		}
	})
	return n
}

// When memory cannot hold even one large frame's worth of small pages,
// promotion attempts must fail gracefully (nothing to evict).
func TestPromotionUnderImpossibleMemory(t *testing.T) {
	cfg := policy.DefaultTwoSizeConfig(1000)
	pol := policy.NewTwoSize(cfg)
	m, err := New(Config{
		TLB:    tlb.NewFullyAssoc(4),
		Policy: pol,
		Memory: addr.Size32K,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promote chunk 0, then touch chunk 1 densely: its promotion needs
	// a second large frame that can only come from evicting chunk 0.
	for i := 0; i < 4; i++ {
		m.Access(addr.VA(i * addr.BlockSize))
	}
	for i := 0; i < 4; i++ {
		m.Access(addr.VA(addr.ChunkSize) + addr.VA(i*addr.BlockSize))
	}
	if m.Memory().FreeFrames()+residentFrames(m) != m.Memory().TotalFrames() {
		t.Fatal("frame conservation violated under extreme pressure")
	}
	if m.Resident() == 0 {
		t.Fatal("something should be resident")
	}
}

// With a disk model attached, faults pay positional + transfer time and
// the paper's amortization shows: a large-page fault brings in 8x the
// bytes for barely more time.
func TestDiskModelFaultCosts(t *testing.T) {
	dm := disk.Default()
	mk := func(pol policy.Assigner) *MMU {
		m, err := New(Config{
			TLB:    tlb.NewFullyAssoc(8),
			Policy: pol,
			Memory: addr.PageSize(1 << 20),
			Disk:   &dm,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// 8 small faults vs 1 large fault for the same 32KB of data.
	small := mk(policy.NewSingle(addr.Size4K))
	for i := 0; i < 8; i++ {
		small.Access(addr.VA(i * addr.BlockSize))
	}
	large := mk(policy.NewSingle(addr.Size32K))
	large.Access(0)
	ss, ls := small.Stats(), large.Stats()
	if ss.IO.PageIns != 8 || ls.IO.PageIns != 1 {
		t.Fatalf("page-ins: %d vs %d", ss.IO.PageIns, ls.IO.PageIns)
	}
	if ss.IO.BytesIn != ls.IO.BytesIn {
		t.Fatalf("bytes differ: %d vs %d", ss.IO.BytesIn, ls.IO.BytesIn)
	}
	if ls.IO.IOCycles*4 > ss.IO.IOCycles {
		t.Fatalf("one 32KB fault (%v cycles) should be far below eight 4KB faults (%v)",
			ls.IO.IOCycles, ss.IO.IOCycles)
	}
	// Invalid disk model rejected.
	badDisk := disk.Model{MBPerSec: 0}
	if _, err := New(Config{
		TLB: tlb.NewFullyAssoc(4), Policy: policy.NewSingle(addr.Size4K),
		Memory: addr.Size32K, Disk: &badDisk,
	}); err == nil {
		t.Fatal("invalid disk model should be rejected")
	}
}

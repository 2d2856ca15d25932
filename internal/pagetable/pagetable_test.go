package pagetable

import (
	"slices"
	"testing"

	"twopage/internal/addr"
)

func TestPenaltyModelMatchesPaper(t *testing.T) {
	if got := SingleSizeHandlerCycles(); got != 20 {
		t.Fatalf("single-size handler = %v cycles, want 20", got)
	}
	if got := TwoSizeHandlerCycles(); got != 25 {
		t.Fatalf("two-size handler = %v cycles, want 25", got)
	}
	// "about 25% longer" (Section 2.3).
	if TwoSizeHandlerCycles()/SingleSizeHandlerCycles() != 1.25 {
		t.Fatal("two-size handler should cost 25% more")
	}
}

// newTwoSize returns an empty table for the paper's 4KB/32KB chunk
// model: class 0 maps 4KB blocks, class 1 32KB chunks.
func newTwoSize() *NTable {
	return NewNTable(addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift))
}

func TestMapAndLookupSmall(t *testing.T) {
	pt := newTwoSize()
	if err := pt.Map(0, 5, 100); err != nil {
		t.Fatal(err)
	}
	pte, w := pt.Lookup(addr.VA(5*addr.BlockSize + 123))
	if !w.Found || w.Large || pte.Frame != 100 || !pte.Valid || pte.Large {
		t.Fatalf("pte=%+v walk=%+v", pte, w)
	}
	if w.Levels != 2 {
		t.Fatalf("small lookup levels = %d, want 2", w.Levels)
	}
	// Unmapped block in same chunk.
	_, w2 := pt.Lookup(addr.VA(6 * addr.BlockSize))
	if w2.Found {
		t.Fatal("block 6 should be unmapped")
	}
	// Completely unmapped chunk: one level only.
	_, w3 := pt.Lookup(addr.VA(1 << 30))
	if w3.Found || w3.Levels != 1 {
		t.Fatalf("walk=%+v", w3)
	}
	st := pt.Stats()
	if st.Lookups != 3 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMapAndLookupLarge(t *testing.T) {
	pt := newTwoSize()
	if err := pt.Map(1, 2, 40); err != nil {
		t.Fatal(err)
	}
	pte, w := pt.Lookup(addr.VA(2*addr.ChunkSize + 0x5123))
	if !w.Found || !w.Large || !pte.Large || pte.Frame != 40 {
		t.Fatalf("pte=%+v walk=%+v", pte, w)
	}
	if w.Levels != 1 {
		t.Fatalf("large lookup levels = %d, want 1", w.Levels)
	}
	// Large walks are cheaper than small walks (one fewer load).
	_, ws := func() (PTE, Walk) {
		pt2 := newTwoSize()
		pt2.Map(0, 100, 1)
		return pt2.Lookup(addr.VA(100 * addr.BlockSize))
	}()
	if w.Cycles >= ws.Cycles {
		t.Fatalf("large walk (%v) should cost less than small walk (%v)", w.Cycles, ws.Cycles)
	}
}

func TestMappingConflicts(t *testing.T) {
	pt := newTwoSize()
	if err := pt.Map(1, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0, 0, 9); err == nil {
		t.Fatal("a 4KB map into a large chunk should fail")
	}
	if err := pt.Map(1, 0, 8); err == nil {
		t.Fatal("mapping a mapped chunk large again should fail")
	}
	pt2 := newTwoSize()
	pt2.Map(0, 0, 1)
	if err := pt2.Map(1, 0, 2); err == nil {
		t.Fatal("a large map over small mappings should fail")
	}
}

func TestUnmap(t *testing.T) {
	pt := newTwoSize()
	pt.Map(0, 0, 1)
	pt.Map(0, 1, 2)
	if pt.MappedRegions() != 1 {
		t.Fatalf("chunks = %d", pt.MappedRegions())
	}
	if !pt.Unmap(addr.VA(0)) {
		t.Fatal("unmap block 0 should succeed")
	}
	if pt.Unmap(addr.VA(0)) {
		t.Fatal("double unmap should report false")
	}
	if !pt.Unmap(addr.VA(addr.BlockSize)) {
		t.Fatal("unmap block 1 should succeed")
	}
	// Chunk entry reclaimed once empty.
	if pt.MappedRegions() != 0 {
		t.Fatalf("chunks = %d after unmapping all", pt.MappedRegions())
	}
	pt.Map(1, 3, 9)
	if !pt.Unmap(addr.VA(3 * addr.ChunkSize)) {
		t.Fatal("unmap large should succeed")
	}
	if pt.MappedRegions() != 0 {
		t.Fatal("large unmap should reclaim the chunk")
	}
	if pt.Unmap(addr.VA(1 << 40)) {
		t.Fatal("unmap of unmapped chunk should be false")
	}
}

func TestPromote(t *testing.T) {
	pt := newTwoSize()
	pt.Map(0, 0, 10)
	pt.Map(0, 2, 12)
	pt.Map(0, 7, 17)
	freed, copied, err := pt.Promote(1, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	want := []Freed{{Frame: 10}, {Frame: 12}, {Frame: 17}} // class-0 frames, in block order
	if copied != 3*addr.BlockSize || !slices.Equal(freed, want) {
		t.Fatalf("copied=%d freed=%v, want %d and %v", copied, freed, 3*addr.BlockSize, want)
	}
	pte, w := pt.Lookup(addr.VA(3 * addr.BlockSize)) // previously unmapped block
	if !w.Found || !pte.Large || pte.Frame != 99 {
		t.Fatalf("post-promotion lookup: pte=%+v", pte)
	}
	st := pt.Stats()
	if st.Promotions != 1 || st.CopiedBytes != 3*addr.BlockSize {
		t.Fatalf("stats: %+v", st)
	}
	// Can't promote again or promote empty/large chunks.
	if _, _, err := pt.Promote(1, 0, 100); err == nil {
		t.Fatal("promoting a large chunk should fail")
	}
	if _, _, err := pt.Promote(1, 50, 100); err == nil {
		t.Fatal("promoting an unmapped chunk should fail")
	}
}

func TestDemote(t *testing.T) {
	pt := newTwoSize()
	pt.Map(1, 1, 55)
	var frames [addr.BlocksPerChunk]addr.PN
	for i := range frames {
		frames[i] = addr.PN(200 + i)
	}
	old, err := pt.Demote(1, 1, frames[:])
	if err != nil {
		t.Fatal(err)
	}
	if old != 55 {
		t.Fatalf("freed large frame = %d", old)
	}
	for i := 0; i < addr.BlocksPerChunk; i++ {
		pte, w := pt.Lookup(addr.VA(1*addr.ChunkSize + i*addr.BlockSize))
		if !w.Found || pte.Large || pte.Frame != addr.PN(200+i) {
			t.Fatalf("block %d: pte=%+v", i, pte)
		}
	}
	if _, err := pt.Demote(1, 1, frames[:]); err == nil {
		t.Fatal("demoting a small chunk should fail")
	}
	if pt.Stats().Demotions != 1 {
		t.Fatalf("stats: %+v", pt.Stats())
	}
}

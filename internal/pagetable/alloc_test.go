package pagetable

import (
	"errors"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
)

// TestLookupAllocs pins the miss-handler walk at zero allocations: one
// flat-table probe plus an arena index, hit or miss.
func TestLookupAllocs(t *testing.T) {
	tab := newTwoSize()
	for blk := addr.PN(0); blk < 1<<12; blk += 2 {
		if err := tab.Map(0, blk, blk); err != nil {
			t.Fatal(err)
		}
	}
	vas := kernelref.LookupVAs(1 << 14)
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		tab.Lookup(vas[i&(1<<14-1)])
		i++
	})
	if avg != 0 {
		t.Errorf("NTable.Lookup allocates %.2f times per call, want 0", avg)
	}
}

// TestMapUnmapAllocs pins steady-state map/unmap churn at zero
// allocations once the arena and free list are warm.
func TestMapUnmapAllocs(t *testing.T) {
	tab := newTwoSize()
	// Warm the arena and index past their growth phase.
	for c := addr.PN(0); c < 1<<10; c++ {
		if err := tab.Map(0, addr.FirstBlock(c), addr.PN(c)); err != nil {
			t.Fatal(err)
		}
	}
	for c := addr.PN(0); c < 1<<10; c++ {
		tab.Unmap(addr.VA(uint64(c) << addr.ChunkShift))
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		c := addr.PN(i & (1<<10 - 1))
		if err := tab.Map(0, addr.FirstBlock(c), addr.PN(i)); err != nil {
			t.Fatal(err)
		}
		tab.Unmap(addr.VA(uint64(c) << addr.ChunkShift))
		i++
	})
	if avg != 0 {
		t.Errorf("Map+Unmap allocate %.2f times per cycle, want 0", avg)
	}
}

// TestRefusalsAllocateNothing pins the state refusals of Map, Promote
// and Demote as package sentinels that cost no formatting: a page-table
// shadow kept in step with a policy meets them on every transition
// against a region no miss has touched yet.
func TestRefusalsAllocateNothing(t *testing.T) {
	nt := NewNTable(addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K))
	// Chunk 0 is one 32KB page, chunk 1 holds a 4KB page, and the
	// second 256KB region is one page; chunk 5 exists only as an empty
	// slot of the first region's table.
	for _, m := range []struct {
		k     int
		pn    addr.PN
		frame addr.PN
	}{{1, 0, 1}, {0, 8, 2}, {2, 1, 3}} {
		if err := nt.Map(m.k, m.pn, m.frame); err != nil {
			t.Fatal(err)
		}
	}
	frames := make([]addr.PN, addr.BlocksPerChunk)
	refusals := []struct {
		name string
		call func() error
		want error
	}{
		{"Map 4KB inside a 32KB page", func() error { return nt.Map(0, 0, 9) }, ErrInsideLarger},
		{"Map 4KB inside a 256KB page", func() error { return nt.Map(0, 64, 9) }, ErrInsideLarger},
		{"Map a mapped 32KB page", func() error { return nt.Map(1, 0, 9) }, ErrAlreadyMapped},
		{"Map 32KB over a 4KB page", func() error { return nt.Map(1, 1, 9) }, ErrHasSmaller},
		{"Map 256KB over smaller pages", func() error { return nt.Map(2, 0, 9) }, ErrHasSmaller},
		{"Promote an empty chunk", func() error { _, _, err := nt.Promote(1, 5, 9); return err }, ErrNothingToPromote},
		{"Promote an unknown region", func() error { _, _, err := nt.Promote(1, 100, 9); return err }, ErrNothingToPromote},
		{"Promote a mapped chunk", func() error { _, _, err := nt.Promote(1, 0, 9); return err }, ErrNothingToPromote},
		{"Demote an empty chunk", func() error { _, err := nt.Demote(1, 5, frames); return err }, ErrNotMapped},
		{"Demote an unknown region", func() error { _, err := nt.Demote(1, 100, frames); return err }, ErrNotMapped},
		{"Demote inside a 256KB page", func() error { _, err := nt.Demote(1, 8, frames); return err }, ErrInsideLarger},
	}
	for _, r := range refusals {
		if err := r.call(); !errors.Is(err, r.want) {
			t.Errorf("%s: err %v, want %v", r.name, err, r.want)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, r := range refusals {
			_ = r.call()
		}
	})
	if avg != 0 {
		t.Errorf("%d refusals allocate %.2f times, want 0", len(refusals), avg)
	}
}

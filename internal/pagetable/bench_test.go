package pagetable

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
)

// BenchmarkTableLookup measures the arena-backed miss-handler walk,
// probing 64MB with every other block of the low 32MB mapped, so hits
// and misses both occur.
func BenchmarkTableLookup(b *testing.B) {
	t := newTwoSize()
	for blk := addr.PN(0); blk < 1<<13; blk += 2 { // map every other block of 32MB
		if err := t.Map(0, blk, blk); err != nil {
			b.Fatal(err)
		}
	}
	vas := kernelref.LookupVAs(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(vas[i&(1<<16-1)])
	}
}

// Map/unmap churn creates and frees one chunk entry per iteration; the
// arena recycles free-list slots and allocates nothing.
func BenchmarkTableMapUnmap(b *testing.B) {
	t := newTwoSize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := addr.PN(i&(1<<12-1)) << 3 // one block per chunk
		if err := t.Map(0, blk, addr.PN(i)); err != nil {
			b.Fatal(err)
		}
		t.Unmap(addr.VA(uint64(blk) << addr.BlockShift))
	}
}

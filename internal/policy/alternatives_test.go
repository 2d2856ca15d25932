package policy

import (
	"testing"

	"twopage/internal/addr"
)

func TestRegionAssign(t *testing.T) {
	// Chunks 2..5 and 32, unsorted and with chunk 3 repeated.
	large := []addr.PN{32, 5, 3, 2, 4, 3}
	p := NewRegion(large)
	large[0] = 7 // the policy keeps its own copy
	// Inside a large chunk.
	res := p.Assign(0x18000)
	if res.Page.Shift != addr.ChunkShift || res.Page.Number != 3 {
		t.Fatalf("in-region assign: %+v", res.Page)
	}
	if res.Event != EventNone {
		t.Fatal("static policy must not emit events")
	}
	// 0x2FFFF is the last byte of chunk 5; 0x30000 the first of chunk 6.
	if got := p.Assign(0x2FFFF); got.Page.Shift != addr.ChunkShift || got.Page.Number != 5 {
		t.Fatalf("last byte of a large chunk: %+v", got.Page)
	}
	if got := p.Assign(0x30000); got.Page.Shift != addr.BlockShift || got.Page.Number != 0x30 {
		t.Fatalf("first byte past it should be small: %+v", got.Page)
	}
	// Outside any large chunk, and in the chunk the caller overwrote.
	for _, va := range []addr.VA{0x0, 0x50000, 0x38000} {
		if got := p.Assign(va); got.Page.Shift != addr.BlockShift {
			t.Fatalf("va %#x should be small: %+v", uint64(va), got.Page)
		}
	}
	// The last chunk of the list covers its whole chunk.
	if got := p.Assign(0x107FFF); got.Page.Shift != addr.ChunkShift {
		t.Fatalf("one-chunk region: %+v", got.Page)
	}
	if p.TopMappedClass(2) != 1 || p.TopMappedClass(6) != 0 {
		t.Fatal("TopMappedClass disagrees with Assign")
	}
	if p.Name() != "4KB/32KB static" {
		t.Fatalf("name: %q", p.Name())
	}
	// No chunks at all: everything small.
	if got := NewRegion(nil).Assign(0x1234); got.Page.Shift != addr.BlockShift {
		t.Fatal("regionless policy should be all-small")
	}
}

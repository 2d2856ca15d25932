package policy

import (
	"slices"

	"twopage/internal/addr"
)

// This file implements the better of the alternative page-size
// assignment policies the paper's conclusion speculates about: "A real
// page-mapping policy may perform much better (e.g., by reorganizing
// code and data for the new page sizes) or much worse (e.g., mapping
// policies might use less dynamic information)". Region models the
// better case, an OS/compiler that knows ahead of time which 32KB
// chunks deserve large pages. The worse case, a policy with no
// reference window, only lifetime touch counts, is a two-size Napot
// with the paper's threshold (napot.go).

// Region is the static-hint policy: chunks declared ahead of time map
// with large pages, and all other addresses use small pages. It models
// static placement hints (madvise-style, or a linker packing hot
// segments onto aligned 32KB regions).
type Region struct {
	large []addr.PN // sorted chunk numbers to map large
}

// NewRegion builds the static-hint policy that maps the given 32KB
// chunks (addr.Chunk numbers) large. The list may be unsorted and
// repeat a chunk; NewRegion keeps a sorted copy.
func NewRegion(large []addr.PN) *Region {
	large = slices.Clone(large)
	slices.Sort(large)
	return &Region{large: large}
}

// inLarge reports whether chunk c is declared large.
func (p *Region) inLarge(c addr.PN) bool {
	_, ok := slices.BinarySearch(p.large, c)
	return ok
}

// Assign implements Assigner.
func (p *Region) Assign(va addr.VA) Result {
	c := addr.Chunk(va)
	if p.inLarge(c) {
		return Result{Page: Page{Number: c, Shift: addr.ChunkShift}}
	}
	return Result{Page: Page{Number: addr.Block(va), Shift: addr.BlockShift}}
}

// Name implements Assigner.
func (p *Region) Name() string { return "4KB/32KB static" }

// SizeClasses implements MultiSize.
func (p *Region) SizeClasses() addr.SizeClasses {
	return addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift)
}

// TopMappedClass implements MultiSize: 1 for a declared large chunk, 0
// otherwise.
func (p *Region) TopMappedClass(c addr.PN) int {
	if p.inLarge(c) {
		return 1
	}
	return 0
}

// Compile-time interface checks.
var (
	_ MultiSize = (*Region)(nil)
	_ MultiSize = (*TwoSize)(nil)
)

package policy

import (
	"fmt"
	"sort"

	"twopage/internal/addr"
)

// This file implements the better of the alternative page-size
// assignment policies the paper's conclusion speculates about: "A real
// page-mapping policy may perform much better (e.g., by reorganizing
// code and data for the new page sizes) or much worse (e.g., mapping
// policies might use less dynamic information)". Region models the
// better case, an OS/compiler that knows ahead of time which address
// ranges deserve large pages. The worse case, a policy with no
// reference window, only lifetime touch counts, is a two-size Napot
// with the paper's threshold (napot.go).

// RegionConfig declares address ranges to map with large pages; all
// other addresses use small pages. It models static placement hints
// (madvise-style, or a linker packing hot segments onto aligned 32KB
// regions).
type RegionConfig struct {
	// LargeRegions lists [start, end) byte ranges to map large. Each
	// range must be non-empty and 32KB-aligned at both ends (a static
	// placement hint that isn't chunk-aligned can't be honored by the
	// hardware, so it is rejected rather than silently widened), and
	// ranges must not overlap one another. Adjacent ranges are allowed
	// and coalesce.
	LargeRegions []Range
}

// Range is a half-open virtual address interval.
type Range struct {
	Start addr.VA
	End   addr.VA
}

// Region is the static-hint policy.
type Region struct {
	chunks []addr.PN // sorted first-chunk numbers of large ranges
	ends   []addr.PN // matching one-past-last chunk numbers
	stats  TwoSizeStats
}

// NewRegion builds the static-hint policy from cfg. It rejects, naming
// the offending region(s): empty ranges, ranges not aligned to the 32KB
// chunk size at both ends, and ranges that overlap another range.
func NewRegion(cfg RegionConfig) (*Region, error) {
	type span struct {
		lo, hi addr.PN
		idx    int // position in cfg.LargeRegions, for error messages
	}
	const mask = addr.ChunkSize - 1
	var spans []span
	for i, r := range cfg.LargeRegions {
		if r.End <= r.Start {
			return nil, fmt.Errorf("policy: region %d [%#x, %#x) is empty",
				i, uint64(r.Start), uint64(r.End))
		}
		if uint64(r.Start)&mask != 0 || uint64(r.End)&mask != 0 {
			return nil, fmt.Errorf("policy: region %d [%#x, %#x) is not %s-aligned",
				i, uint64(r.Start), uint64(r.End), addr.PageSize(addr.ChunkSize))
		}
		spans = append(spans, span{
			lo:  addr.Chunk(r.Start),
			hi:  addr.Chunk(r.End-1) + 1,
			idx: i,
		})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	p := &Region{}
	prev := span{idx: -1}
	for _, s := range spans {
		if n := len(p.ends); n > 0 && s.lo < p.ends[n-1] {
			return nil, fmt.Errorf("policy: region %d [%#x, %#x) overlaps region %d [%#x, %#x)",
				s.idx, uint64(s.lo)<<addr.ChunkShift, uint64(s.hi)<<addr.ChunkShift,
				prev.idx, uint64(prev.lo)<<addr.ChunkShift, uint64(prev.hi)<<addr.ChunkShift)
		}
		prev = s
		if n := len(p.ends); n > 0 && s.lo == p.ends[n-1] {
			p.ends[n-1] = s.hi // coalesce adjacency
			continue
		}
		p.chunks = append(p.chunks, s.lo)
		p.ends = append(p.ends, s.hi)
	}
	return p, nil
}

// inLarge reports whether chunk c falls in a declared large region.
func (p *Region) inLarge(c addr.PN) bool {
	i := sort.Search(len(p.chunks), func(i int) bool { return p.chunks[i] > c })
	return i > 0 && c < p.ends[i-1]
}

// Assign implements Assigner.
func (p *Region) Assign(va addr.VA) Result {
	p.stats.Refs++
	c := addr.Chunk(va)
	if p.inLarge(c) {
		p.stats.LargeRefs++
		return Result{Page: Page{Number: c, Shift: addr.ChunkShift}}
	}
	p.stats.SmallRefs++
	return Result{Page: Page{Number: addr.Block(va), Shift: addr.BlockShift}}
}

// Name implements Assigner.
func (p *Region) Name() string { return "4KB/32KB static" }

// SizeClasses implements MultiSize.
func (p *Region) SizeClasses() addr.SizeClasses {
	return addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift)
}

// TopMappedClass implements MultiSize: 1 for a chunk in a declared
// large region, 0 otherwise.
func (p *Region) TopMappedClass(c addr.PN) int {
	if p.inLarge(c) {
		return 1
	}
	return 0
}

// Stats returns reference counters.
func (p *Region) Stats() TwoSizeStats { return p.stats }

// Compile-time interface checks.
var (
	_ MultiSize = (*Region)(nil)
	_ MultiSize = (*TwoSize)(nil)
)

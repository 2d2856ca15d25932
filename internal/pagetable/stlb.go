package pagetable

import (
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// STLB is the "software cache of translation entries" Section 2.3
// suggests placing in front of the full page-table walk: a
// direct-mapped array of recent translations that the miss handler
// probes before walking the real table. Because the handler does not
// know the faulting page's size, the probe mirrors the hardware's
// sequential exact-index strategy: try the small page number's slot,
// then the large page number's slot.
type STLB struct {
	slots []stlbSlot
	mask  uint64
	stats STLBStats
}

type stlbSlot struct {
	page  policy.Page
	pte   PTE
	valid bool
}

// STLBStats counts software-cache activity.
type STLBStats struct {
	Lookups uint64
	Hits    uint64
	// SecondProbeHits are hits found on the large-page (second) probe.
	SecondProbeHits uint64
	Fills           uint64
	Invalidations   uint64
}

// NewSTLB returns a direct-mapped software translation cache with the
// given number of slots (a power of two).
func NewSTLB(slots int) (*STLB, error) {
	if slots <= 0 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("pagetable: STLB slots %d not a positive power of two", slots)
	}
	return &STLB{slots: make([]stlbSlot, slots), mask: uint64(slots - 1)}, nil
}

func (s *STLB) slotFor(pn addr.PN) *stlbSlot {
	return &s.slots[uint64(pn)&s.mask]
}

// Lookup probes for va (small slot, then large slot). It returns the
// translation, whether it hit, and the probe cost in cycles.
func (s *STLB) Lookup(va addr.VA) (PTE, bool, float64) {
	s.stats.Lookups++
	small := policy.Page{Number: addr.Block(va), Shift: addr.BlockShift}
	if sl := s.slotFor(small.Number); sl.valid && sl.page == small {
		s.stats.Hits++
		return sl.pte, true, STLBProbeCycles
	}
	large := policy.Page{Number: addr.Chunk(va), Shift: addr.ChunkShift}
	if sl := s.slotFor(large.Number); sl.valid && sl.page == large {
		s.stats.Hits++
		s.stats.SecondProbeHits++
		return sl.pte, true, 2 * STLBProbeCycles
	}
	return PTE{}, false, 2 * STLBProbeCycles
}

// Fill caches a translation after a successful full walk.
func (s *STLB) Fill(p policy.Page, pte PTE) {
	sl := s.slotFor(p.Number)
	*sl = stlbSlot{page: p, pte: pte, valid: true}
	s.stats.Fills++
}

// Invalidate drops the cached translation for p if present.
func (s *STLB) Invalidate(p policy.Page) bool {
	sl := s.slotFor(p.Number)
	if sl.valid && sl.page == p {
		sl.valid = false
		s.stats.Invalidations++
		return true
	}
	return false
}

// InvalidateChunk drops the chunk's large entry and all its small
// entries — the shootdown a promotion/demotion requires.
func (s *STLB) InvalidateChunk(c addr.PN) int {
	n := 0
	if s.Invalidate(policy.Page{Number: c, Shift: addr.ChunkShift}) {
		n++
	}
	first := addr.FirstBlock(c)
	for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
		if s.Invalidate(policy.Page{Number: first + i, Shift: addr.BlockShift}) {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the counters.
func (s *STLB) Stats() STLBStats { return s.stats }

// HitRatio returns hits/lookups.
func (s *STLB) HitRatio() float64 {
	if s.stats.Lookups == 0 {
		return 0
	}
	return float64(s.stats.Hits) / float64(s.stats.Lookups)
}

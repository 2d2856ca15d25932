package core

import (
	"twopage/internal/addr"
	"twopage/internal/pagetable"
	"twopage/internal/policy"
)

// ptShadow keeps a software page table consistent with the policy's
// page-size decisions, so TLB misses can be charged the modelled walk
// cost (pagetable's handler cycle model) instead of a flat penalty
// assumption. State is plain shard-local data: an NTable, a bump frame
// allocator, and a cycle accumulator — nothing global, so per-shard
// shadows merge by summing their counters.
type ptShadow struct {
	nt      *pagetable.NTable
	classes addr.SizeClasses
	next    addr.PN // bump frame allocator (deterministic)
	cycles  float64
	frames  []addr.PN // demotion scratch, reused across events
}

func newPTShadow(classes addr.SizeClasses) *ptShadow {
	maxFan := 1
	for k := 1; k < classes.N(); k++ {
		if f := classes.Fanout(k); f > maxFan {
			maxFan = f
		}
	}
	return &ptShadow{
		nt:      pagetable.NewNTable(classes),
		classes: classes,
		next:    1, // frame 0 reserved so a zero PTE is never a real frame
		frames:  make([]addr.PN, 0, maxFan),
	}
}

// alloc returns the next frame. Frames are never recycled: the shadow
// models mapping structure and walk cost, not physical memory pressure
// (physmem owns that), and a monotonic counter keeps shard runs
// deterministic without a free-list.
func (p *ptShadow) alloc() addr.PN {
	f := p.next
	p.next++
	return f
}

// classOf maps a page shift back to its size-class index.
func (p *ptShadow) classOf(shift uint) int {
	for k := 0; k < p.classes.N(); k++ {
		if p.classes.Shift(k) == shift {
			return k
		}
	}
	return 0
}

// apply mirrors one policy transition into the table. A promotion
// collapses the region's smaller mappings into one large mapping; if
// the region was never demand-mapped below (no miss touched it yet) the
// large mapping is installed directly. A demotion splits the region
// into its children. Inconsistencies (a transition against a region the
// shadow never saw) are ignored: the policy is authoritative, and the
// next miss demand-maps whatever the walk cannot find. The table's
// refusals here are its sentinel errors, so discarding them costs no
// formatting or allocation.
func (p *ptShadow) apply(level int, res policy.Result) {
	switch res.Event {
	case policy.EventPromote:
		if _, _, err := p.nt.Promote(level, res.Chunk, p.alloc()); err != nil {
			_ = p.nt.Map(level, res.Chunk, p.alloc())
		}
	case policy.EventDemote:
		fan := p.classes.Fanout(level)
		p.frames = p.frames[:0]
		for i := 0; i < fan; i++ {
			p.frames = append(p.frames, p.alloc()) //paperlint:ignore hotalloc frames reuses capacity across demotions; it grows at most to the largest fanout once
		}
		_, _ = p.nt.Demote(level, res.Chunk, p.frames)
	}
}

// ptStep drives the TLBs for one reference and walks the shadow on a
// first-TLB miss (ptMiss). The per-reference hot path when
// WithPageTable is active: one flat-table probe on top of the TLB
// accesses for hits, a walk plus at most one map on misses.
//
//paperlint:hot
func (s *Simulator) ptStep(va addr.VA, res policy.Result) {
	hit := s.tlbs[0].Access(va, res.Page)
	for _, t := range s.tlbs[1:] {
		t.Access(va, res.Page)
	}
	if !hit {
		s.ptMiss(va, res.Page)
	}
}

// ptMiss walks the shadow for a first-TLB miss on page p, demand-mapping
// a page the table has never seen.
//
//paperlint:hot
func (s *Simulator) ptMiss(va addr.VA, p policy.Page) {
	pte, w := s.pt.nt.Lookup(va)
	if s.walker != nil {
		// Modeled walk: charge per-level loads through the PWCs and the
		// memory-side cache instead of the flat handler total. The
		// shadow's own cycle accumulator stays at zero — PTWalkCycles
		// comes from the walker.
		s.walker.Walk(va, w.Levels)
	} else {
		s.pt.cycles += w.Cycles
	}
	if !pte.Valid {
		k := s.pt.classOf(p.Shift)
		_ = s.pt.nt.Map(k, p.Number, s.pt.alloc()) //paperlint:ignore hotalloc demand-map path: node alloc runs once per first-touched page, not per reference
	}
}

package core

import (
	"errors"
	"fmt"
	"math"

	"twopage/internal/addr"
	"twopage/internal/disk"
	"twopage/internal/htab"
	"twopage/internal/pagetable"
	"twopage/internal/physmem"
	"twopage/internal/policy"
	"twopage/internal/tlb"
)

// Fixed costs of the memory stage's translation path. A TLB hit costs
// tlbHitCycles; a miss costs that plus the page-table walk (the
// two-size handler model of internal/pagetable, 20–25 cycles), plus
// the fault cost when the walk finds no mapping. Promotions and
// demotions pay their copy traffic at one 8-byte word per cycle.
const (
	tlbHitCycles       = 1
	copyBytesPerCycle  = 8
	defaultFaultCycles = 500
)

// memClasses is the only hierarchy the memory stage can back: the
// buddy allocator hands out 4KB frames and aligned 32KB frames, and
// the replacement clock understands exactly those two sizes.
var memClasses = addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift)

// Memory configures the memory stage that WithMemory attaches.
type Memory struct {
	// Size is the physical memory: a positive multiple of 32KB, at most
	// physmem.MaxSize.
	Size addr.PageSize
	// FaultCycles is charged when a reference touches an unmapped page
	// (demand paging in). The paper's metrics exclude page faults, so
	// keep it small to study TLB effects, or large to study memory
	// pressure. Must be finite and non-negative; 0 means 500.
	FaultCycles float64
	// Disk, when non-nil, prices page-ins with the positional disk
	// model instead of the flat FaultCycles: one seek and rotation per
	// fault plus a size-proportional transfer, the Section 1
	// amortization argument for large pages.
	Disk *disk.Model
}

// MemoryStats is the memory stage's block of a Result. The stage's
// page-table walks, faults, completed promotions and demotions and
// their copy traffic are in Result.PageTable; its TLB hits and misses
// are those of TLBs[0].
type MemoryStats struct {
	// Evictions counts replaced pages (by page, not frame); each page
	// also counts once in EvictionsByClass at its size class (0 = 4KB,
	// 1 = 32KB; higher classes stay zero).
	Evictions        uint64
	EvictionsByClass [addr.MaxSizeClasses]uint64
	// Buddy holds the frame allocator's counters, and FreeFrames and
	// TotalFrames its 4KB frames free at the end of the run and in all.
	Buddy       physmem.Stats
	FreeFrames  uint64
	TotalFrames uint64
	// IO accumulates disk paging traffic when a disk model is attached.
	IO disk.Stats
	// Cycles is the total modelled translation cost, summed per
	// reference: TLB hit or walk, fault or page-in, and copy traffic.
	Cycles float64
}

// CyclesPerRef returns the memory stage's average translation cost per
// reference, or 0 without a memory stage or references.
func (r *Result) CyclesPerRef() float64 {
	if r.Memory == nil || r.Refs == 0 {
		return 0
	}
	return r.Memory.Cycles / float64(r.Refs)
}

// WithMemory attaches a memory stage: demand paging over a 4KB/32KB
// page table, frames from a buddy allocator of m.Size bytes, and clock
// replacement across both page sizes. It is the machinery the paper's
// conclusion lists as open operating-system problems ("memory
// management and page replacement policies for multiple page size
// systems").
//
// The stage owns the policy's promotions and demotions: it carries
// each out against its page table and physical memory (allocating the
// large frame and copying resident blocks, or splitting a resident
// large page), and invalidates the affected TLB entries only when the
// remap succeeds. Every miss of the first TLB walks the stage's table
// at the two-size handler's cost, under every policy; a walk that
// finds no mapping faults the page in, evicting under pressure.
// Results gain a Memory block and PageTable stats.
//
// The policy must use 4KB or 32KB pages: a Single policy of either
// size, or a multi-size policy over exactly the 4KB/32KB hierarchy.
// At least one TLB is required, and the stage does not combine with
// WithPageTable or WithWalkModel, nor with Warm: its clock and frame
// allocator have no warm-up roll-back, so memory passes do not shard.
// Anything else is a configuration error.
func WithMemory(m Memory) Option {
	return func(s *Simulator) {
		err := s.memoryErr(m)
		var alloc *physmem.Allocator
		if err == nil {
			alloc, err = physmem.New(m.Size)
		}
		if err != nil {
			s.fail(fmt.Errorf("core: WithMemory: %w", err))
			return
		}
		cfg := m
		if cfg.FaultCycles == 0 {
			cfg.FaultCycles = defaultFaultCycles
		}
		s.mem = &memStage{
			cfg:   cfg,
			tlbs:  s.tlbs,
			pt:    pagetable.NewNTable(memClasses),
			alloc: alloc,
			where: htab.NewU64(1 << 8),
		}
	}
}

// memoryErr reports why a memory stage of configuration m cannot
// attach.
func (s *Simulator) memoryErr(m Memory) error {
	switch {
	case len(s.tlbs) == 0:
		return errors.New("requires at least one TLB")
	case s.pol == nil:
		return errors.New("requires a policy")
	}
	if s.classes.N() > 0 {
		if s.classes != memClasses {
			return fmt.Errorf("only the %s hierarchy is supported, policy %q uses %s",
				memClasses, s.pol.Name(), s.classes)
		}
	} else if p, ok := s.pol.(*policy.Single); !ok || (p.Shift() != addr.BlockShift && p.Shift() != addr.ChunkShift) {
		return fmt.Errorf("only 4KB or 32KB pages are supported, policy %q uses other sizes", s.pol.Name())
	}
	if !(m.FaultCycles >= 0) || math.IsInf(m.FaultCycles, 1) {
		return fmt.Errorf("FaultCycles must be a finite number >= 0, got %g", m.FaultCycles)
	}
	if m.Disk != nil {
		return m.Disk.Validate()
	}
	return nil
}

// resident is one page of the replacement clock.
type resident struct {
	page  policy.Page
	frame addr.PN
	ref   bool
	valid bool
}

// pageKey packs a policy.Page into one uint64 so the resident index is
// a flat uint64 table rather than a map keyed by a two-field struct.
// The stage's shifts are 12 and 15, so six low bits hold the shift and
// the page number keeps 58 bits — more than any virtual address the
// simulators generate.
func pageKey(p policy.Page) uint64 {
	return uint64(p.Number)<<6 | uint64(p.Shift)&63
}

// memStage is the state of a memory stage: the page table, the frame
// allocator, and the clock of resident pages (tombstoned on removal,
// compacted when tombstones dominate).
type memStage struct {
	cfg   Memory
	tlbs  []tlb.TLB
	pt    *pagetable.NTable
	alloc *physmem.Allocator
	stats MemoryStats // the flow counters; counts fills in the allocator's

	clock     []resident
	hand      int
	where     *htab.U64 // pageKey -> clock index
	tombstone int
}

// step drives the TLBs for one reference. A first-TLB hit costs one
// cycle and sets the page's reference bit; a miss walks the page
// table, and a walk that finds no mapping pays the fault and pages the
// page in. Cycles are summed per reference, in that order, because the
// disk model's page-in costs are not integers.
//
//paperlint:hot
func (m *memStage) step(va addr.VA, p policy.Page) {
	hit := m.tlbs[0].Access(va, p)
	for _, t := range m.tlbs[1:] {
		t.Access(va, p)
	}
	if hit {
		m.touch(p)
		m.stats.Cycles += tlbHitCycles
		return
	}
	_, w := m.pt.Lookup(va)
	cycles := tlbHitCycles + w.Cycles
	if w.Found {
		m.touch(p)
	} else {
		if m.cfg.Disk != nil {
			cycles += m.stats.IO.Account(*m.cfg.Disk, p.Size())
		} else {
			cycles += m.cfg.FaultCycles
		}
		m.pageIn(p) //paperlint:ignore hotalloc fault path: the clock and page table grow once per faulting page, not per reference
	}
	m.stats.Cycles += cycles
}

// apply carries out one policy transition.
func (m *memStage) apply(res policy.Result) {
	switch res.Event {
	case policy.EventPromote:
		m.promote(res.Chunk)
	case policy.EventDemote:
		m.demote(res.Chunk)
	}
}

// invalidate drops p from every TLB.
func (m *memStage) invalidate(p policy.Page) {
	for _, t := range m.tlbs {
		t.Invalidate(p)
	}
}

// touch sets a resident page's reference bit.
func (m *memStage) touch(p policy.Page) {
	if i, ok := m.where.Get(pageKey(p)); ok {
		m.clock[i].ref = true
	}
}

// insert records a resident page in the clock.
func (m *memStage) insert(p policy.Page, frame addr.PN) {
	if _, ok := m.where.Get(pageKey(p)); ok {
		return
	}
	m.clock = append(m.clock, resident{page: p, frame: frame, ref: true, valid: true})
	m.where.Put(pageKey(p), uint64(len(m.clock)-1))
	m.maybeCompact()
}

// remove drops a resident page from the clock, returning its frame.
func (m *memStage) remove(p policy.Page) (addr.PN, bool) {
	i, ok := m.where.Get(pageKey(p))
	if !ok {
		return 0, false
	}
	m.clock[i].valid = false
	m.where.Delete(pageKey(p))
	m.tombstone++
	return m.clock[i].frame, true
}

// maybeCompact squeezes tombstones out of the clock once they make up
// half of it.
func (m *memStage) maybeCompact() {
	if m.tombstone < 64 || m.tombstone*2 < len(m.clock) {
		return
	}
	out := m.clock[:0]
	for _, e := range m.clock {
		if e.valid {
			out = append(out, e)
		}
	}
	m.clock = out
	m.tombstone = 0
	for i := range m.clock {
		m.where.Put(pageKey(m.clock[i].page), uint64(i))
	}
	if m.hand >= len(m.clock) {
		m.hand = 0
	}
}

// evictOne runs the clock until it reclaims one page, returning false
// if nothing is resident.
func (m *memStage) evictOne() bool {
	if m.where.Len() == 0 {
		return false
	}
	for spins := 0; spins < 2*len(m.clock)+2; spins++ {
		if m.hand >= len(m.clock) {
			m.hand = 0
		}
		e := &m.clock[m.hand]
		m.hand++
		if !e.valid {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		m.reclaim(e.page)
		return true
	}
	return false
}

// reclaim unmaps and frees one resident page.
func (m *memStage) reclaim(p policy.Page) {
	frame, ok := m.remove(p)
	if !ok {
		return
	}
	m.pt.Unmap(p.Base())
	m.invalidate(p)
	m.alloc.Free(frame)
	m.stats.Evictions++
	m.stats.EvictionsByClass[pageClass(p)]++
}

// pageClass is a page's size class: 0 for 4KB, 1 for 32KB.
func pageClass(p policy.Page) int {
	if p.Shift >= addr.ChunkShift {
		return 1
	}
	return 0
}

// frame allocates a 4KB frame, or an aligned 32KB frame when large,
// evicting under pressure. External fragmentation can make a large
// allocation fail even with free memory; the clock keeps evicting until
// the buddy allocator coalesces a run or nothing is left to evict.
func (m *memStage) frame(large bool) (addr.PN, bool) {
	for {
		var f addr.PN
		var err error
		if large {
			f, err = m.alloc.AllocLarge()
		} else {
			f, err = m.alloc.AllocSmall()
		}
		if err == nil {
			return f, true
		}
		if !m.evictOne() {
			return 0, false
		}
	}
}

// pageIn maps a faulting page, allocating its frame. When the table
// still holds the chunk at the other size (a transition the stage
// could not carry out, e.g. for lack of memory), the stale mappings
// are dropped and the map retried once.
func (m *memStage) pageIn(p policy.Page) {
	k := pageClass(p)
	frame, ok := m.frame(k == 1)
	if !ok {
		return
	}
	if err := m.pt.Map(k, p.Number, frame); err != nil {
		if k == 1 {
			first := addr.FirstBlock(p.Number)
			for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
				m.reclaim(policy.Page{Number: first + i, Shift: addr.BlockShift})
			}
		} else {
			m.reclaim(policy.Page{Number: addr.ChunkOfBlock(p.Number), Shift: addr.ChunkShift})
		}
		if err := m.pt.Map(k, p.Number, frame); err != nil {
			m.alloc.Free(frame)
			return
		}
	}
	m.insert(p, frame)
}

// promote carries out a promotion: allocate the large frame, copy the
// resident blocks, free their frames. A chunk with no resident small
// pages is left alone; its large page faults in on next access.
func (m *memStage) promote(c addr.PN) {
	frame, ok := m.frame(true)
	if !ok {
		return
	}
	freed, copied, err := m.pt.Promote(1, c, frame)
	if err != nil {
		m.alloc.Free(frame)
		return
	}
	first := addr.FirstBlock(c)
	for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
		p := policy.Page{Number: first + i, Shift: addr.BlockShift}
		m.remove(p) // its frame comes back through freed
		m.invalidate(p)
	}
	for _, f := range freed {
		m.alloc.Free(f.Frame)
	}
	m.insert(policy.Page{Number: c, Shift: addr.ChunkShift}, frame)
	m.stats.Cycles += float64(copied) / copyBytesPerCycle
}

// demote splits a resident large page into eight resident small pages
// (the contents already exist; only frames and mappings move). A large
// page that is not resident is left alone.
func (m *memStage) demote(c addr.PN) {
	large := policy.Page{Number: c, Shift: addr.ChunkShift}
	if _, ok := m.where.Get(pageKey(large)); !ok {
		return
	}
	var frames [addr.BlocksPerChunk]addr.PN
	for i := range frames {
		f, ok := m.frame(false)
		if !ok {
			m.free(frames[:i])
			return
		}
		frames[i] = f
	}
	old, err := m.pt.Demote(1, c, frames[:])
	if err != nil {
		m.free(frames[:])
		return
	}
	m.remove(large)
	m.invalidate(large)
	m.alloc.Free(old)
	first := addr.FirstBlock(c)
	for i, f := range frames {
		m.insert(policy.Page{Number: first + addr.PN(i), Shift: addr.BlockShift}, f)
	}
	m.stats.Cycles += float64(addr.ChunkSize) / copyBytesPerCycle
}

// free returns frames to the allocator.
func (m *memStage) free(frames []addr.PN) {
	for _, f := range frames {
		m.alloc.Free(f)
	}
}

// counts snapshots the stage's block, with the allocator's counters and
// end-of-run gauges.
func (m *memStage) counts() *MemoryStats {
	st := m.stats
	st.Buddy = m.alloc.Stats()
	st.FreeFrames, st.TotalFrames = m.alloc.FreeFrames(), m.alloc.TotalFrames()
	return &st
}

// Package mmu assembles the full address-translation path of a
// two-page-size system: TLB lookup, software miss handling against the
// two-size page table, demand paging with physical frame allocation,
// and a clock page-replacement policy that accommodates both page
// sizes — the machinery the paper's conclusion lists as open operating
// system problems ("efficient TLB miss handling, page-size assignment
// policies, memory management and page replacement policies for
// multiple page size systems").
//
// Cycle accounting follows the paper's models: 1 cycle for a TLB hit,
// the page-table walk cost (≈20/25 cycles, internal/pagetable) for a
// miss that finds a mapping, a configurable fault cost for a miss that
// does not, and copy costs for promotions/demotions charged at one
// 8-byte word per cycle.
package mmu

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"twopage/internal/addr"
	"twopage/internal/disk"
	"twopage/internal/htab"
	"twopage/internal/obs"
	"twopage/internal/pagetable"
	"twopage/internal/physmem"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
)

// Fixed costs of the translation path (see the package comment).
const (
	// tlbHitCycles is the cost of a TLB hit.
	tlbHitCycles = 1
	// copyBytesPerCycle converts promotion/demotion copy traffic to
	// cycles: one 8-byte word per cycle.
	copyBytesPerCycle = 8
)

// Config parameterizes an MMU.
type Config struct {
	// TLB is the translation cache. Required.
	TLB tlb.TLB
	// Policy assigns page sizes. Required.
	Policy policy.Assigner
	// Memory is the physical memory size; must be a positive multiple
	// of 32KB. Required.
	Memory addr.PageSize
	// FaultCycles is charged when a reference touches an unmapped page
	// (demand paging in). The paper's metrics exclude page faults, so
	// keep it small to study TLB effects, or large to study memory
	// pressure. Must be finite and non-negative; 0 means the default,
	// 500.
	FaultCycles float64
	// Disk, when non-nil, prices page-ins with the positional disk
	// model instead of the flat FaultCycles — one seek+rotation per
	// fault plus a size-proportional transfer, the Section 1
	// amortization argument for large pages.
	Disk *disk.Model
}

func (c *Config) normalize() error {
	if c.TLB == nil {
		return errors.New("mmu: Config.TLB is required")
	}
	if c.Policy == nil {
		return errors.New("mmu: Config.Policy is required")
	}
	if ts, ok := c.Policy.(*policy.TwoSize); ok {
		if ts.Config().LargeShift != addr.ChunkShift {
			return fmt.Errorf("mmu: only 32KB large pages are supported, policy uses %d-bit shift",
				ts.Config().LargeShift)
		}
	} else if mp, ok := c.Policy.(policy.MultiSize); ok {
		// The frame allocator and replacement clock understand exactly the
		// paper's two sizes; a deeper hierarchy would emit pages the buddy
		// allocator cannot back.
		want := addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift)
		if mp.SizeClasses() != want {
			return fmt.Errorf("mmu: only the %s hierarchy is supported, policy uses %s",
				want, mp.SizeClasses())
		}
	}
	switch {
	case c.FaultCycles == 0:
		c.FaultCycles = 500
	case !(c.FaultCycles > 0) || math.IsInf(c.FaultCycles, 1):
		return fmt.Errorf("mmu: Config.FaultCycles must be a finite number >= 0, got %g", c.FaultCycles)
	}
	if c.Disk != nil {
		if err := c.Disk.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates MMU activity and cycle accounting.
type Stats struct {
	Accesses  uint64
	TLBHits   uint64
	TLBMisses uint64
	// Walks counts software miss-handler invocations; WalkHits the
	// subset that found a valid mapping (no fault).
	Walks    uint64
	WalkHits uint64
	// Faults counts demand-paging events (mapping created).
	Faults uint64
	// Evictions counts replaced pages (by page, not frame); each page
	// also counts once in EvictionsByClass at its size class.
	Evictions uint64
	// EvictionsByClass splits Evictions by size class (0 = 4KB blocks,
	// 1 = 32KB chunks; higher classes stay zero while the MMU supports
	// only the paper's two sizes).
	EvictionsByClass [addr.MaxSizeClasses]uint64
	// Promotions/Demotions mirror the policy's transitions that the MMU
	// carried out against the page table.
	Promotions uint64
	Demotions  uint64
	// CopiedBytes is promotion/demotion copy traffic.
	CopiedBytes uint64
	// IO accumulates disk paging traffic when a disk model is attached.
	IO disk.Stats
	// Cycles is the total modelled translation cost.
	Cycles float64
}

// CyclesPerAccess returns the average translation cost.
func (s Stats) CyclesPerAccess() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return s.Cycles / float64(s.Accesses)
}

type resident struct {
	page  policy.Page
	frame addr.PN
	ref   bool
	valid bool
}

// pageKey packs a policy.Page into one uint64 so the resident index
// can be a flat uint64 table instead of a map keyed by the two-field
// struct (whose runtime hashing dominates the touch-per-access path).
// Shift is at most 24 (policy validates LargeShift ≤ 24), so six low
// bits hold it and the page number keeps 58 bits — more than any
// virtual address the simulators generate.
func pageKey(p policy.Page) uint64 {
	return uint64(p.Number)<<6 | uint64(p.Shift)&63
}

// unpackKey inverts pageKey (tests and diagnostics).
func unpackKey(k uint64) policy.Page {
	return policy.Page{Number: addr.PN(k >> 6), Shift: uint(k & 63)}
}

// MMU is a two-page-size memory-management unit with demand paging.
type MMU struct {
	cfg   Config
	pt    *pagetable.Table
	mem   *physmem.Allocator
	stats Stats

	clock     []resident
	hand      int
	where     *htab.U64 // pageKey -> clock index
	tombstone int
}

// New builds an MMU from cfg.
func New(cfg Config) (*MMU, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	mem, err := physmem.New(cfg.Memory)
	if err != nil {
		return nil, err
	}
	return &MMU{
		cfg:   cfg,
		pt:    pagetable.New(),
		mem:   mem,
		where: htab.NewU64(1 << 8),
	}, nil
}

// Stats returns a snapshot of the counters.
func (m *MMU) Stats() Stats { return m.stats }

// Counters folds the MMU's translation-path activity, its TLB's
// per-page-size hit/miss split, and the buddy allocator's counters into
// one run-report block. Called once per pass, off the hot path.
func (m *MMU) Counters() obs.Counters {
	c := m.cfg.TLB.Stats().Counters()
	ms := m.mem.Stats()
	c.Passes = 1
	c.Refs = m.stats.Accesses
	c.Promotions = m.stats.Promotions
	c.Demotions = m.stats.Demotions
	c.PTWalks = m.stats.Walks
	c.Faults = m.stats.Faults
	c.Evictions = m.stats.Evictions
	c.EvictionsSize2 = m.stats.EvictionsByClass[2]
	c.EvictionsSize3 = m.stats.EvictionsByClass[3]
	c.CopiedBytes = m.stats.CopiedBytes
	c.BuddySplits = ms.Splits
	c.BuddyCoalesces = ms.Coalesces
	c.BuddyPeakResident = ms.PeakResident
	return c
}

// PageTable exposes the page table for inspection.
func (m *MMU) PageTable() *pagetable.Table { return m.pt }

// Memory exposes the physical allocator for inspection.
func (m *MMU) Memory() *physmem.Allocator { return m.mem }

// Resident returns the number of resident pages (of either size).
func (m *MMU) Resident() int { return m.where.Len() }

// Access translates one reference, performing any policy transition,
// miss handling, demand paging and replacement it implies. It returns
// the cycles charged.
func (m *MMU) Access(va addr.VA) float64 {
	m.stats.Accesses++
	res := m.cfg.Policy.Assign(va)
	switch res.Event {
	case policy.EventPromote:
		m.promote(res.Chunk)
	case policy.EventDemote:
		m.demote(res.Chunk)
	}
	cycles := 0.0
	if m.cfg.TLB.Access(va, res.Page) {
		m.stats.TLBHits++
		cycles = tlbHitCycles
		m.touch(res.Page)
		m.stats.Cycles += cycles
		return cycles
	}
	m.stats.TLBMisses++
	m.stats.Walks++
	_, walk := m.pt.Lookup(va)
	cycles = tlbHitCycles + walk.Cycles
	if walk.Found {
		m.stats.WalkHits++
		m.touch(res.Page)
	} else {
		m.stats.Faults++
		if m.cfg.Disk != nil {
			cycles += m.stats.IO.Account(*m.cfg.Disk, res.Page.Size())
		} else {
			cycles += m.cfg.FaultCycles
		}
		m.pageIn(res.Page)
	}
	m.stats.Cycles += cycles
	return cycles
}

// Run drives a whole reference stream through the MMU. Cancellation is
// checked between batches, as in core.Simulator.Run.
func (m *MMU) Run(ctx context.Context, r trace.Reader) (Stats, error) {
	buf := make([]trace.Ref, 8192)
	for {
		if err := ctx.Err(); err != nil {
			return m.stats, err
		}
		n, err := r.Read(buf)
		for _, ref := range buf[:n] {
			m.Access(ref.Addr)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return m.stats, nil
			}
			return m.stats, fmt.Errorf("mmu: %w", err)
		}
	}
}

// touch sets the clock reference bit. It runs on every TLB hit and
// walk hit — the MMU's own per-reference hot path.
//
//paperlint:hot
func (m *MMU) touch(p policy.Page) {
	if i, ok := m.where.Get(pageKey(p)); ok {
		m.clock[i].ref = true
	}
}

// insert records a resident page in the clock.
func (m *MMU) insert(p policy.Page, frame addr.PN) {
	if _, ok := m.where.Get(pageKey(p)); ok {
		return
	}
	m.clock = append(m.clock, resident{page: p, frame: frame, ref: true, valid: true})
	m.where.Put(pageKey(p), uint64(len(m.clock)-1))
	m.maybeCompact()
}

// remove drops a resident page from the clock (tombstoned).
func (m *MMU) remove(p policy.Page) (addr.PN, bool) {
	i, ok := m.where.Get(pageKey(p))
	if !ok {
		return 0, false
	}
	frame := m.clock[i].frame
	m.clock[i].valid = false
	m.where.Delete(pageKey(p))
	m.tombstone++
	return frame, true
}

func (m *MMU) maybeCompact() {
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
func (m *MMU) evictOne() bool {
	if m.where.Len() == 0 {
		return false
	}
	for spins := 0; spins < 2*len(m.clock)+2; spins++ {
		if len(m.clock) == 0 {
			return false
		}
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
func (m *MMU) reclaim(p policy.Page) {
	frame, ok := m.remove(p)
	if !ok {
		return
	}
	m.pt.Unmap(p.Base())
	m.cfg.TLB.Invalidate(p)
	m.mem.Free(frame)
	m.stats.Evictions++
	if uint(p.Shift) >= addr.ChunkShift {
		m.stats.EvictionsByClass[1]++
	} else {
		m.stats.EvictionsByClass[0]++
	}
}

// allocSmall allocates a 4KB frame, evicting under pressure.
func (m *MMU) allocSmall() (addr.PN, bool) {
	for {
		f, err := m.mem.AllocSmall()
		if err == nil {
			return f, true
		}
		if !m.evictOne() {
			return 0, false
		}
	}
}

// allocLarge allocates an aligned 32KB frame, evicting under pressure.
// External fragmentation can make this fail even with free memory; the
// clock keeps evicting until the buddy allocator coalesces a run or
// nothing is left to evict.
func (m *MMU) allocLarge() (addr.PN, bool) {
	for {
		f, err := m.mem.AllocLarge()
		if err == nil {
			return f, true
		}
		if !m.evictOne() {
			return 0, false
		}
	}
}

// pageIn maps a faulting page, allocating its frame.
func (m *MMU) pageIn(p policy.Page) {
	if uint(p.Shift) >= addr.ChunkShift {
		frame, ok := m.allocLarge()
		if !ok {
			return
		}
		if err := m.pt.MapLarge(p.Number, frame); err != nil {
			// Small mappings still exist under this chunk (the policy
			// promoted but the promote step could not run, e.g. OOM):
			// drop them and retry once.
			m.dropSmallUnder(p.Number)
			if err := m.pt.MapLarge(p.Number, frame); err != nil {
				m.mem.Free(frame)
				return
			}
		}
		m.insert(p, frame)
		return
	}
	frame, ok := m.allocSmall()
	if !ok {
		return
	}
	if err := m.pt.MapSmall(p.Number, frame); err != nil {
		// Chunk is mapped large while the policy thinks small (stale
		// after failed demotion): drop the large page and retry.
		large := policy.Page{Number: addr.ChunkOfBlock(p.Number), Shift: addr.ChunkShift}
		m.reclaim(large)
		if err := m.pt.MapSmall(p.Number, frame); err != nil {
			m.mem.Free(frame)
			return
		}
	}
	m.insert(p, frame)
}

// dropSmallUnder reclaims any resident small pages of chunk c.
func (m *MMU) dropSmallUnder(c addr.PN) {
	first := addr.FirstBlock(c)
	for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
		m.reclaim(policy.Page{Number: first + i, Shift: addr.BlockShift})
	}
}

// promote carries out a policy promotion against the page table:
// allocate the large frame, copy resident blocks, free their frames.
// If the chunk has no resident small pages, the large page simply
// faults in on next access.
func (m *MMU) promote(c addr.PN) {
	frame, ok := m.allocLarge()
	if !ok {
		return
	}
	freed, copied, err := m.pt.Promote(c, frame)
	if err != nil {
		m.mem.Free(frame)
		return
	}
	first := addr.FirstBlock(c)
	for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
		p := policy.Page{Number: first + i, Shift: addr.BlockShift}
		m.remove(p) // its frame is returned via the page table's freed list
		m.cfg.TLB.Invalidate(p)
	}
	for _, f := range freed {
		m.mem.Free(f)
	}
	large := policy.Page{Number: c, Shift: addr.ChunkShift}
	m.insert(large, frame)
	m.stats.Promotions++
	bytes := uint64(copied) * addr.BlockSize
	m.stats.CopiedBytes += bytes
	m.stats.Cycles += float64(bytes) / copyBytesPerCycle
}

// demote splits a resident large page back into eight resident small
// pages (the contents already exist; only frames and mappings move).
func (m *MMU) demote(c addr.PN) {
	large := policy.Page{Number: c, Shift: addr.ChunkShift}
	if _, ok := m.where.Get(pageKey(large)); !ok {
		return // not resident; nothing to split
	}
	var frames [addr.BlocksPerChunk]addr.PN
	for i := range frames {
		f, ok := m.allocSmall()
		if !ok {
			for j := 0; j < i; j++ {
				m.mem.Free(frames[j])
			}
			return
		}
		frames[i] = f
	}
	oldFrame, err := m.pt.Demote(c, frames)
	if err != nil {
		for _, f := range frames {
			m.mem.Free(f)
		}
		return
	}
	m.remove(large)
	m.cfg.TLB.Invalidate(large)
	m.mem.Free(oldFrame)
	first := addr.FirstBlock(c)
	for i := addr.PN(0); i < addr.BlocksPerChunk; i++ {
		m.insert(policy.Page{Number: first + i, Shift: addr.BlockShift}, frames[i])
	}
	m.stats.Demotions++
	m.stats.CopiedBytes += addr.ChunkSize
	m.stats.Cycles += float64(addr.ChunkSize) / copyBytesPerCycle
}

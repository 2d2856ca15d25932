// Package tworef preserves the pre-generalization two-page-size
// implementations of the TLB, the dynamic assignment policy, and the
// page table, copied from internal/{tlb,policy,pagetable} at the point
// the N-size core replaced them. Like internal/kernelref for the hash
// kernels, this package exists solely as a differential-test oracle:
// the shimmed two-size constructors in the live packages must reproduce
// these reference implementations event-for-event when configured with
// exactly {4KB, 32KB} (or any legacy small/large pair).
//
// The code intentionally keeps the legacy Small*/Large* naming — that
// is the surface being pinned. The deprecation grep-gate exempts this
// package for the same reason.
package tworef

import (
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/htab"
	"twopage/internal/policy"
	"twopage/internal/window"
)

// ---------------------------------------------------------------------------
// Reference TLB (legacy internal/tlb.SetAssoc)

// IndexScheme mirrors the legacy tlb.IndexScheme values.
type IndexScheme uint8

// Index schemes.
const (
	IndexSmall IndexScheme = iota
	IndexLarge
	IndexExact
)

// Replacement mirrors the legacy tlb.Replacement values.
type Replacement uint8

// Replacement policies.
const (
	LRU Replacement = iota
	FIFO
	Random
)

// Stats is the legacy two-size counter layout.
type Stats struct {
	Accesses      uint64
	SmallHits     uint64
	LargeHits     uint64
	SmallMisses   uint64
	LargeMisses   uint64
	Invalidations uint64
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.SmallHits + s.LargeHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.SmallMisses + s.LargeMisses }

// Reprobes mirrors the legacy sequential exact-index reprobe count.
func (s Stats) Reprobes() uint64 { return s.LargeHits + s.Misses() }

type entry struct {
	pn       addr.PN
	shift    uint16
	valid    bool
	lastUse  uint64
	loadedAt uint64
}

// Config mirrors the legacy tlb.Config with explicit two-size shifts.
type Config struct {
	Entries    int
	Ways       int
	Index      IndexScheme
	Repl       Replacement
	SmallShift uint
	LargeShift uint
	Seed       uint64
}

// SetAssoc is the legacy set-associative TLB.
type SetAssoc struct {
	cfg      Config
	sets     int
	setBits  uint
	entries  []entry
	clock    uint64
	rng      uint64
	stats    Stats
	occupied int
}

// New constructs the reference TLB, applying the legacy defaults.
func New(cfg Config) (*SetAssoc, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("tworef: entries must be positive, got %d", cfg.Entries)
	}
	if cfg.Ways == 0 {
		cfg.Ways = cfg.Entries
	}
	if cfg.Ways < 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("tworef: %d entries not divisible into %d ways", cfg.Entries, cfg.Ways)
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tworef: set count %d is not a power of two", sets)
	}
	if cfg.SmallShift == 0 {
		cfg.SmallShift = addr.Shift4K
	}
	if cfg.LargeShift == 0 {
		cfg.LargeShift = addr.Shift32K
	}
	if cfg.SmallShift >= cfg.LargeShift {
		return nil, fmt.Errorf("tworef: small shift %d must be below large shift %d",
			cfg.SmallShift, cfg.LargeShift)
	}
	setBits := uint(0)
	for v := sets; v > 1; v >>= 1 {
		setBits++
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &SetAssoc{
		cfg:     cfg,
		sets:    sets,
		setBits: setBits,
		entries: make([]entry, cfg.Entries),
		rng:     seed,
	}, nil
}

func (t *SetAssoc) index(va addr.VA, p policy.Page) uint64 {
	if t.sets == 1 {
		return 0
	}
	switch t.cfg.Index {
	case IndexSmall:
		return addr.Index(va, t.cfg.SmallShift, t.setBits)
	case IndexLarge:
		return addr.Index(va, t.cfg.LargeShift, t.setBits)
	default: // IndexExact
		return addr.Index(va, uint(p.Shift), t.setBits)
	}
}

func (t *SetAssoc) xorshift() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Access is the legacy access path.
func (t *SetAssoc) Access(va addr.VA, p policy.Page) bool {
	t.clock++
	t.stats.Accesses++
	large := uint(p.Shift) >= t.cfg.LargeShift
	idx := t.index(va, p)
	base := int(idx) * t.cfg.Ways
	set := t.entries[base : base+t.cfg.Ways]
	victim := -1
	for i := range set {
		e := &set[i]
		if !e.valid {
			if victim < 0 {
				victim = i
			}
			continue
		}
		if e.pn == p.Number && uint(e.shift) == p.Shift {
			e.lastUse = t.clock
			if large {
				t.stats.LargeHits++
			} else {
				t.stats.SmallHits++
			}
			return true
		}
	}
	if large {
		t.stats.LargeMisses++
	} else {
		t.stats.SmallMisses++
	}
	if victim < 0 {
		victim = t.pickVictim(set)
	} else {
		t.occupied++
	}
	set[victim] = entry{
		pn:       p.Number,
		shift:    uint16(p.Shift),
		valid:    true,
		lastUse:  t.clock,
		loadedAt: t.clock,
	}
	return false
}

func (t *SetAssoc) pickVictim(set []entry) int {
	switch t.cfg.Repl {
	case FIFO:
		v, oldest := 0, set[0].loadedAt
		for i := 1; i < len(set); i++ {
			if set[i].loadedAt < oldest {
				v, oldest = i, set[i].loadedAt
			}
		}
		return v
	case Random:
		return int(t.xorshift() % uint64(len(set)))
	default: // LRU
		v, oldest := 0, set[0].lastUse
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < oldest {
				v, oldest = i, set[i].lastUse
			}
		}
		return v
	}
}

// Invalidate is the legacy whole-array invalidation scan.
func (t *SetAssoc) Invalidate(p policy.Page) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.pn == p.Number && uint(e.shift) == p.Shift {
			e.valid = false
			n++
		}
	}
	t.stats.Invalidations += uint64(n)
	t.occupied -= n
	return n
}

// Flush empties the TLB.
func (t *SetAssoc) Flush() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.occupied = 0
}

// Stats returns a snapshot of the counters.
func (t *SetAssoc) Stats() Stats { return t.stats }

// Occupied returns the number of valid entries.
func (t *SetAssoc) Occupied() int { return t.occupied }

// ---------------------------------------------------------------------------
// Reference policy (legacy internal/policy.TwoSize)

// TwoSizeStats is the legacy policy counter layout.
type TwoSizeStats struct {
	Refs        uint64
	LargeRefs   uint64
	SmallRefs   uint64
	Promotions  uint64
	Demotions   uint64
	LargeChunks int
}

// TwoSize is the legacy dynamic policy (paper Section 3.4).
type TwoSize struct {
	cfg   policy.TwoSizeConfig
	win   *window.Tracker
	large *htab.Set
	stats TwoSizeStats
}

// NewTwoSize builds the reference policy from a live-package config.
func NewTwoSize(cfg policy.TwoSizeConfig) *TwoSize {
	if cfg.T <= 0 {
		panic("tworef: TwoSizeConfig.T must be positive")
	}
	if cfg.LargeShift == 0 {
		cfg.LargeShift = addr.ChunkShift
	}
	if cfg.LargeShift <= addr.BlockShift || cfg.LargeShift > 24 {
		panic(fmt.Sprintf("tworef: large shift %d out of range (%d,24]",
			cfg.LargeShift, addr.BlockShift))
	}
	bpc := cfg.BlocksPerChunk()
	if cfg.Threshold < 1 || cfg.Threshold > bpc {
		panic(fmt.Sprintf("tworef: threshold %d out of range [1,%d]",
			cfg.Threshold, bpc))
	}
	return &TwoSize{
		cfg:   cfg,
		win:   window.NewWithChunkShift(cfg.T, cfg.LargeShift),
		large: htab.NewSet(1 << 8),
	}
}

// Window exposes the sliding-window tracker.
func (p *TwoSize) Window() *window.Tracker { return p.win }

// Stats returns a snapshot of policy counters.
func (p *TwoSize) Stats() TwoSizeStats {
	s := p.stats
	s.LargeChunks = p.large.Len()
	return s
}

// IsLarge reports whether chunk c is currently mapped large.
func (p *TwoSize) IsLarge(c addr.PN) bool { return p.large.Has(uint64(c)) }

// Assign is the legacy per-reference policy step. It returns results in
// the live package's Result type so differential tests can compare
// field-for-field (Level is always 1 on events, matching the shim).
func (p *TwoSize) Assign(va addr.VA) policy.Result {
	p.stats.Refs++
	p.win.StepVA(va)
	c := addr.Page(va, p.cfg.LargeShift)
	active := p.win.ChunkActive(c)
	isLarge := p.large.Has(uint64(c))
	var res policy.Result
	switch {
	case !isLarge && active >= p.cfg.Threshold:
		p.large.Add(uint64(c))
		isLarge = true
		p.stats.Promotions++
		res.Event = policy.EventPromote
		res.Chunk = c
		res.Level = 1
	case isLarge && p.cfg.Demote && active < p.cfg.Threshold:
		p.large.Remove(uint64(c))
		isLarge = false
		p.stats.Demotions++
		res.Event = policy.EventDemote
		res.Chunk = c
		res.Level = 1
	}
	if isLarge {
		p.stats.LargeRefs++
		res.Page = policy.Page{Number: c, Shift: p.cfg.LargeShift}
	} else {
		p.stats.SmallRefs++
		res.Page = policy.Page{Number: addr.Block(va), Shift: addr.BlockShift}
	}
	return res
}

// ---------------------------------------------------------------------------
// Reference page table (the legacy two-size table that NTable replaced)

// Cycle model constants, copied from the legacy package.
const (
	trapCycles      = 8.0
	loadCycles      = 4.0
	insertCycles    = 4.0
	sizeProbeCycles = 5.0
)

// PTE mirrors pagetable.PTE.
type PTE struct {
	Frame addr.PN
	Valid bool
	Large bool
}

// Walk mirrors pagetable.Walk.
type Walk struct {
	Found  bool
	Levels int
	Cycles float64
	Large  bool
}

type chunkEntry struct {
	large    bool
	largePTE PTE
	blocks   [addr.BlocksPerChunk]PTE
}

// TableStats mirrors pagetable.Stats.
type TableStats struct {
	Lookups     uint64
	Misses      uint64
	Promotions  uint64
	Demotions   uint64
	CopiedBytes uint64
}

// Table is the legacy two-size page table with the dense chunk arena.
type Table struct {
	idx   *htab.U64
	arena []chunkEntry
	free  []uint32
	stats TableStats
}

// NewTable returns an empty reference table.
func NewTable() *Table {
	return &Table{idx: htab.NewU64(1 << 8)}
}

func (t *Table) entry(c addr.PN) *chunkEntry {
	i, ok := t.idx.Get(uint64(c))
	if !ok {
		return nil
	}
	return &t.arena[i]
}

func (t *Table) alloc(c addr.PN) *chunkEntry {
	var i uint32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
		t.arena[i] = chunkEntry{}
	} else {
		i = uint32(len(t.arena))
		t.arena = append(t.arena, chunkEntry{})
	}
	t.idx.Put(uint64(c), uint64(i))
	return &t.arena[i]
}

func (t *Table) release(c addr.PN) {
	i, ok := t.idx.Get(uint64(c))
	if !ok {
		return
	}
	t.idx.Delete(uint64(c))
	t.free = append(t.free, uint32(i))
}

// MapSmall installs a 4KB mapping for block b.
func (t *Table) MapSmall(b addr.PN, frame addr.PN) error {
	c := addr.ChunkOfBlock(b)
	ce := t.entry(c)
	if ce == nil {
		ce = t.alloc(c)
	}
	if ce.large {
		return fmt.Errorf("tworef: chunk %#x is mapped large", uint64(c))
	}
	ce.blocks[addr.BlockIndex(b)] = PTE{Frame: frame, Valid: true}
	return nil
}

// MapLarge installs a 32KB mapping for chunk c.
func (t *Table) MapLarge(c addr.PN, frame addr.PN) error {
	ce := t.entry(c)
	if ce != nil {
		if ce.large {
			return fmt.Errorf("tworef: chunk %#x already mapped large", uint64(c))
		}
		for _, pte := range ce.blocks {
			if pte.Valid {
				return fmt.Errorf("tworef: chunk %#x has small mappings; promote instead", uint64(c))
			}
		}
	} else {
		ce = t.alloc(c)
	}
	*ce = chunkEntry{large: true, largePTE: PTE{Frame: frame, Valid: true, Large: true}}
	return nil
}

// Unmap removes the mapping covering va.
func (t *Table) Unmap(va addr.VA) bool {
	c := addr.Chunk(va)
	ce := t.entry(c)
	if ce == nil {
		return false
	}
	if ce.large {
		t.release(c)
		return true
	}
	i := addr.BlockInChunk(va)
	if !ce.blocks[i].Valid {
		return false
	}
	ce.blocks[i] = PTE{}
	for _, pte := range ce.blocks {
		if pte.Valid {
			return true
		}
	}
	t.release(c)
	return true
}

// Lookup walks the table with the legacy cost model.
func (t *Table) Lookup(va addr.VA) (PTE, Walk) {
	t.stats.Lookups++
	w := Walk{Cycles: trapCycles + sizeProbeCycles + insertCycles}
	ce := t.entry(addr.Chunk(va))
	w.Levels = 1
	w.Cycles += loadCycles
	if ce == nil {
		t.stats.Misses++
		return PTE{}, w
	}
	if ce.large {
		w.Found = true
		w.Large = true
		return ce.largePTE, w
	}
	w.Levels = 2
	w.Cycles += loadCycles
	pte := ce.blocks[addr.BlockInChunk(va)]
	if !pte.Valid {
		t.stats.Misses++
		return PTE{}, w
	}
	w.Found = true
	return pte, w
}

// Promote collapses chunk c's small mappings into one large mapping.
func (t *Table) Promote(c addr.PN, newFrame addr.PN) (freed []addr.PN, copied int, err error) {
	ce := t.entry(c)
	if ce == nil || ce.large {
		return nil, 0, fmt.Errorf("tworef: chunk %#x has no small mappings to promote", uint64(c))
	}
	for _, pte := range ce.blocks {
		if pte.Valid {
			freed = append(freed, pte.Frame)
			copied++
		}
	}
	if copied == 0 {
		return nil, 0, fmt.Errorf("tworef: chunk %#x is empty", uint64(c))
	}
	*ce = chunkEntry{large: true, largePTE: PTE{Frame: newFrame, Valid: true, Large: true}}
	t.stats.Promotions++
	t.stats.CopiedBytes += uint64(copied) * addr.BlockSize
	return freed, copied, nil
}

// Demote splits chunk c's large mapping into eight small mappings.
func (t *Table) Demote(c addr.PN, frames [addr.BlocksPerChunk]addr.PN) (addr.PN, error) {
	ce := t.entry(c)
	if ce == nil || !ce.large {
		return 0, fmt.Errorf("tworef: chunk %#x is not mapped large", uint64(c))
	}
	old := ce.largePTE.Frame
	*ce = chunkEntry{}
	for i, f := range frames {
		ce.blocks[i] = PTE{Frame: f, Valid: true}
	}
	t.stats.Demotions++
	t.stats.CopiedBytes += addr.ChunkSize
	return old, nil
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() TableStats { return t.stats }

// MappedChunks returns how many chunks have any mapping.
func (t *Table) MappedChunks() int { return t.idx.Len() }

// Package tlb models translation lookaside buffers that support one or
// more page sizes, reproducing — and generalizing — the design space of
// Section 2 of the paper.
//
// A fully associative TLB (Section 2.1) stores the page size in each tag
// and needs a comparator per entry; it is the straightforward but
// expensive design. Set-associative TLBs (Section 2.2) must choose which
// address bits select the set:
//
//   - IndexSmall: the least significant bits of the *smallest* page
//     number. Broken for larger pages: bits <14:12> are part of a 32KB
//     page's offset, so one large page lands in many sets (Figure 2.1).
//   - IndexLarge: the least significant bits of the *largest* page
//     number. Works for large pages but makes consecutive small pages
//     compete for one set; severe if the OS allocates no large pages.
//   - IndexExact: index with the page's own page-number bits. Requires
//     either parallel probes, a sequential reprobe, or split TLBs; the
//     contents (and therefore hit/miss behaviour) are the same for the
//     first two, differing only in hit cost, which Stats exposes as
//     Reprobes for the sequential variant.
//   - IndexByClass(k): the least significant bits of class k's page
//     number — the N-size generalization that makes "small index" and
//     "large index" the two ends of a spectrum of middle-class indexing
//     choices.
//
// The page-size hierarchy itself is a parameter (Config.Shifts,
// validated through addr.SizeClasses); the paper's 4KB/32KB pair is the
// two-class default.
//
// MultiSplit models option (c) of Section 2.2: a separate TLB per page
// size, all probed in parallel with their own index.
//
// All models count hits/misses per size class and support the entry
// invalidation that page promotion/demotion requires.
package tlb

import (
	"fmt"
	"slices"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/obs"
	"twopage/internal/policy"
)

// IndexScheme selects which address bits index a set-associative TLB
// (Section 2.2 of the paper, generalized to per-class indexing).
type IndexScheme uint8

// Index schemes. IndexSmall and IndexLarge are aliases for indexing by
// the lowest and highest configured class; IndexByClass(k) names any
// class explicitly.
const (
	IndexSmall IndexScheme = iota // smallest-class page-number bits (broken for large pages)
	IndexLarge                    // largest-class page-number bits
	IndexExact                    // the accessed page's own page-number bits

	// indexClassBase is the first per-class scheme value; IndexByClass
	// builds on it.
	indexClassBase
)

// IndexByClass returns the scheme that indexes with size class k's
// page-number bits. k must be in [0, addr.MaxSizeClasses).
func IndexByClass(k int) IndexScheme {
	if k < 0 || k >= addr.MaxSizeClasses {
		panic(fmt.Sprintf("tlb: index class %d out of range [0,%d)", k, addr.MaxSizeClasses))
	}
	return indexClassBase + IndexScheme(k)
}

// Class returns the explicit class a per-class scheme indexes by, and
// whether s is such a scheme.
func (s IndexScheme) Class() (int, bool) {
	if s >= indexClassBase && s < indexClassBase+addr.MaxSizeClasses {
		return int(s - indexClassBase), true
	}
	return 0, false
}

// String names the scheme as in the paper's Table 5.1.
func (s IndexScheme) String() string {
	switch s {
	case IndexSmall:
		return "small index"
	case IndexLarge:
		return "large index"
	case IndexExact:
		return "exact index"
	}
	if k, ok := s.Class(); ok {
		return fmt.Sprintf("class%d index", k)
	}
	return fmt.Sprintf("IndexScheme(%d)", uint8(s))
}

// Replacement selects the per-set replacement policy.
type Replacement uint8

// Replacement policies.
const (
	LRU    Replacement = iota // least recently used (paper's assumption)
	FIFO                      // first in, first out
	Random                    // uniform random victim
)

// String names the replacement policy.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// Stats are TLB access counters. Hits and misses are broken down by the
// size class of the access so CPI accounting can weigh them.
type Stats struct {
	Accesses      uint64 // total lookups
	Invalidations uint64 // entries removed by Invalidate
	// Classes is how many size classes the owning TLB supports. Zero is
	// treated as the legacy two-class layout by the derived metrics.
	//paperlint:gauge structural constant, not flow: Merge max-carries it, Sub leaves it
	Classes int
	// HitsByClass and MissesByClass split the traffic by size class;
	// class 0 is the smallest page. Only the first Classes entries are
	// ever nonzero.
	HitsByClass   [addr.MaxSizeClasses]uint64
	MissesByClass [addr.MaxSizeClasses]uint64
}

// NewStats returns a zeroed Stats for a TLB supporting the given
// hierarchy; wrappers that keep their own counters use it so derived
// metrics know the class count.
func NewStats(classes addr.SizeClasses) Stats { return Stats{Classes: classes.N()} }

// Count records one access outcome against size class k.
func (s *Stats) Count(k int, hit bool) {
	if hit {
		s.HitsByClass[k]++
	} else {
		s.MissesByClass[k]++
	}
}

// Merge accumulates another TLB's counters (split halves, multi-level
// wrappers). The class count is the maximum of the two.
func (s *Stats) Merge(o Stats) {
	s.Accesses += o.Accesses
	s.Invalidations += o.Invalidations
	if o.Classes > s.Classes {
		s.Classes = o.Classes
	}
	for k := range s.HitsByClass {
		s.HitsByClass[k] += o.HitsByClass[k]
		s.MissesByClass[k] += o.MissesByClass[k]
	}
}

// Sub removes a previously recorded baseline from the counters: every
// count in o must have been accumulated into s first. Shard workers use
// it to roll back a warm-up preroll's traffic, leaving exactly the
// section's own accesses — integer arithmetic, so the subtraction is
// exact. It allocates nothing.
func (s *Stats) Sub(o Stats) {
	s.Accesses -= o.Accesses
	s.Invalidations -= o.Invalidations
	for k := range s.HitsByClass {
		s.HitsByClass[k] -= o.HitsByClass[k]
		s.MissesByClass[k] -= o.MissesByClass[k]
	}
}

// Hits returns total hits.
func (s Stats) Hits() uint64 {
	var n uint64
	for _, h := range s.HitsByClass {
		n += h
	}
	return n
}

// Misses returns total misses.
func (s Stats) Misses() uint64 {
	var n uint64
	for _, m := range s.MissesByClass {
		n += m
	}
	return n
}

// MissRatio returns misses/accesses, or 0 for an untouched TLB.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses)
}

// Counters converts the TLB statistics into the run-report counter
// block (internal/obs). Classes 0 and 1 keep the legacy small/large
// keys; classes 2 and 3 use the size<k> keys. Called once per pass,
// off the hot path.
func (s Stats) Counters() obs.Counters {
	return obs.Counters{
		TLBAccesses:      s.Accesses,
		TLBHitsSmall:     s.HitsByClass[0],
		TLBHitsLarge:     s.HitsByClass[1],
		TLBMissesSmall:   s.MissesByClass[0],
		TLBMissesLarge:   s.MissesByClass[1],
		TLBHitsSize2:     s.HitsByClass[2],
		TLBHitsSize3:     s.HitsByClass[3],
		TLBMissesSize2:   s.MissesByClass[2],
		TLBMissesSize3:   s.MissesByClass[3],
		TLBInvalidations: s.Invalidations,
	}
}

// Reprobes returns how many extra probes the sequential-access variant
// of exact indexing needs (Section 2.2, option (b)): the TLB is probed
// smallest class first, so a class-k hit costs k extra probes and a
// miss probes every class. With two classes this is the paper's
// "every large-page hit and every miss" count.
func (s Stats) Reprobes() uint64 {
	n := s.Classes
	if n < 2 {
		n = 2
	}
	var r uint64
	for k := 1; k < n && k < len(s.HitsByClass); k++ {
		r += uint64(k) * s.HitsByClass[k]
	}
	return r + uint64(n-1)*s.Misses()
}

// TLB is the interface shared by all TLB models. Access takes both the
// full virtual address (set selection may use offset bits below the large
// page number) and the page the OS policy resolved the address to.
type TLB interface {
	// Access looks up the page; on a miss the translation is installed
	// (possibly evicting a victim). Returns true on hit.
	Access(va addr.VA, p policy.Page) bool
	// Invalidate removes all copies of the page, returning how many
	// entries were dropped. Page promotion invalidates the region's
	// smaller pages; demotion invalidates the larger page.
	Invalidate(p policy.Page) int
	// Flush empties the TLB (context switch).
	Flush()
	// Stats returns a snapshot of the counters.
	Stats() Stats
	// Entries returns the total entry count.
	Entries() int
	// Name describes the organization, e.g. "16-entry 2-way (exact index)".
	Name() string
}

// tagOf packs a page into a way's tag: pn<<6 | shift. Page shifts lie in
// [1, 63] (addr.NewShiftClasses) and a page number under a shift of at
// least 6 fits in 58 bits, so distinct pages get distinct tags and no
// page's tag is 0, which marks an empty way.
func tagOf(p policy.Page) uint64 { return uint64(p.Number)<<6 | uint64(p.Shift) }

// stamp is a way's replacement state, kept apart from the tags so that a
// scan reads 8 bytes per way; only the hit way and a filled way touch it.
type stamp struct {
	lastUse  uint64 // LRU timestamp
	loadedAt uint64 // FIFO timestamp
}

// Config describes a set-associative (or, with Ways == Entries, fully
// associative) TLB.
type Config struct {
	// Entries is the total number of translation entries. Must be a
	// positive multiple of Ways.
	Entries int
	// Ways is the set associativity; Ways == Entries (or 0, treated the
	// same) is fully associative.
	Ways int
	// Index selects the set-index bits; irrelevant for fully associative.
	Index IndexScheme
	// Repl is the replacement policy within a set. Defaults to LRU.
	Repl Replacement
	// Shifts lists the page shifts the indexing hardware is wired for,
	// strictly ascending, at most addr.MaxSizeClasses of them. Empty
	// defaults to the paper's 4KB/32KB.
	Shifts []uint
	// Seed seeds the Random replacement generator.
	Seed uint64
}

func (c *Config) normalize() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb: entries must be positive, got %d", c.Entries)
	}
	if c.Ways == 0 {
		c.Ways = c.Entries
	}
	if c.Ways < 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: %d entries not divisible into %d ways", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: set count %d is not a power of two", sets)
	}
	if len(c.Shifts) == 0 {
		c.Shifts = []uint{addr.Shift4K, addr.Shift32K}
	}
	classes, err := addr.NewShiftClasses(c.Shifts...)
	if err != nil {
		return err
	}
	if classes.N() < 2 {
		return fmt.Errorf("tlb: need at least two size classes, got %d", classes.N())
	}
	if k, ok := c.Index.Class(); ok && k >= classes.N() {
		return fmt.Errorf("tlb: index class %d out of range for %d size classes", k, classes.N())
	}
	return nil
}

// Normalized returns the configuration with defaults applied (Ways,
// the Shifts hierarchy), or an error for invalid geometries. Two
// configurations that normalize identically build identical TLBs, which
// is what lets the experiment engine use the normalized form as a
// memoization key.
func (c Config) Normalized() (Config, error) {
	if err := c.normalize(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Classes returns the validated size-class hierarchy of a normalized
// configuration (after Normalized or New).
func (c Config) Classes() (addr.SizeClasses, error) {
	n, err := c.Normalized()
	if err != nil {
		return addr.SizeClasses{}, err
	}
	return addr.NewShiftClasses(n.Shifts...)
}

// Key returns a canonical fragment identifying the configuration for
// memoization keys. Two-class configurations keep the historical
// "s<small>.l<large>" spelling byte-for-byte (run-report pass keys are
// derived from it); larger hierarchies spell the shifts explicitly.
func (c Config) Key() (string, error) {
	cfg, err := c.Normalized()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "e%d.w%d.ix%d.r%d.", cfg.Entries, cfg.Ways, cfg.Index, cfg.Repl)
	if len(cfg.Shifts) == 2 {
		fmt.Fprintf(&b, "s%d.l%d", cfg.Shifts[0], cfg.Shifts[1])
	} else {
		b.WriteString("sc")
		for i, s := range cfg.Shifts {
			if i > 0 {
				b.WriteByte('-')
			}
			fmt.Fprintf(&b, "%d", s)
		}
	}
	fmt.Fprintf(&b, ".seed%d", cfg.Seed)
	return b.String(), nil
}

// SetAssoc is a set-associative TLB (fully associative when Ways ==
// Entries). It implements TLB.
type SetAssoc struct {
	cfg     Config
	classes addr.SizeClasses
	// classOf maps a page shift to its size class (classes.ClassOf),
	// looked up on every access instead of scanning the classes. Access
	// clamps shifts to 63, which ClassOf also puts in the top class.
	classOf [64]uint8
	sets    int
	setBits uint
	// idxShift is the fixed indexing shift, or -1 for exact indexing
	// (index with the accessed page's own shift).
	idxShift int
	tags     []uint64 // sets × ways, tagOf of each resident page, 0 if empty
	stamps   []stamp  // parallel to tags
	// recent holds a fully associative TLB's two most recently hit or
	// filled ways, most recent first. Access checks them before its scan;
	// the tag compare verifies each, so they only reorder the search.
	recent   [2]int
	clock    uint64
	rng      uint64
	stats    Stats
	occupied int
}

// New constructs a TLB from cfg. It returns an error for invalid
// geometries (non-power-of-two set counts, entries not divisible by
// ways, non-ascending shift lists).
func New(cfg Config) (*SetAssoc, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	classes, err := addr.NewShiftClasses(cfg.Shifts...)
	if err != nil {
		return nil, err
	}
	sets := cfg.Entries / cfg.Ways
	setBits := uint(0)
	for v := sets; v > 1; v >>= 1 {
		setBits++
	}
	idxShift := -1
	switch {
	case cfg.Index == IndexSmall:
		idxShift = int(classes.Shift(0))
	case cfg.Index == IndexLarge:
		idxShift = int(classes.TopShift())
	default:
		if k, ok := cfg.Index.Class(); ok {
			idxShift = int(classes.Shift(k))
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	t := &SetAssoc{
		cfg:      cfg,
		classes:  classes,
		sets:     sets,
		setBits:  setBits,
		idxShift: idxShift,
		tags:     make([]uint64, cfg.Entries),
		stamps:   make([]stamp, cfg.Entries),
		rng:      seed,
		stats:    NewStats(classes),
	}
	for shift := range t.classOf {
		t.classOf[shift] = uint8(classes.ClassOf(uint(shift)))
	}
	return t, nil
}

// MustNew is New, panicking on error; for tests and tables of known-good
// configurations.
func MustNew(cfg Config) *SetAssoc {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// NewFullyAssoc returns a fully associative TLB with LRU replacement,
// the organization of Section 2.1 and Figure 5.1.
func NewFullyAssoc(entries int) *SetAssoc {
	return MustNew(Config{Entries: entries, Ways: entries})
}

// Config returns the (normalized) configuration.
func (t *SetAssoc) Config() Config { return t.cfg }

// Classes returns the size-class hierarchy the TLB is wired for.
func (t *SetAssoc) Classes() addr.SizeClasses { return t.classes }

// Sets returns the number of sets.
func (t *SetAssoc) Sets() int { return t.sets }

// Entries implements TLB.
func (t *SetAssoc) Entries() int { return t.cfg.Entries }

// FullyAssociative reports whether the TLB is one set.
func (t *SetAssoc) FullyAssociative() bool { return t.sets == 1 }

// Name implements TLB.
func (t *SetAssoc) Name() string {
	if t.FullyAssociative() {
		return fmt.Sprintf("%d-entry fully associative", t.cfg.Entries)
	}
	return fmt.Sprintf("%d-entry %d-way (%s)", t.cfg.Entries, t.cfg.Ways, t.cfg.Index)
}

// index computes the set index for an access (va, p) under the
// configured scheme.
func (t *SetAssoc) index(va addr.VA, p policy.Page) uint64 {
	if t.sets == 1 {
		return 0
	}
	if t.idxShift >= 0 {
		return addr.Index(va, uint(t.idxShift), t.setBits)
	}
	return addr.Index(va, uint(p.Shift), t.setBits) // IndexExact
}

func (t *SetAssoc) xorshift() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Access implements TLB. This is the per-reference hot path: the
// AllocsPerRun test pins it to zero steady-state allocations.
//
//paperlint:hot
func (t *SetAssoc) Access(va addr.VA, p policy.Page) bool {
	t.clock++
	t.stats.Accesses++
	k := t.classOf[min(p.Shift, 63)]
	tag := tagOf(p)
	base := 0
	if t.sets == 1 {
		for _, w := range t.recent {
			if t.tags[w] == tag {
				t.touch(w)
				t.stats.HitsByClass[k]++
				return true
			}
		}
	} else {
		base = int(t.index(va, p)) * t.cfg.Ways
	}
	set := t.tags[base : base+t.cfg.Ways]
	for i, g := range set {
		if g == tag {
			t.touch(base + i)
			t.stats.HitsByClass[k]++
			return true
		}
	}
	t.stats.MissesByClass[k]++
	w := -1
	if t.occupied < t.cfg.Entries {
		w = t.empty(base)
	}
	if w < 0 {
		w = base + t.pickVictim(base)
	}
	t.load(w, tag)
	return false
}

// touch refreshes way w's LRU timestamp on a hit.
func (t *SetAssoc) touch(w int) {
	t.stamps[w].lastUse = t.clock
	if t.sets == 1 {
		t.hint(w)
	}
}

// hint makes way w the most recently used of a fully associative TLB.
func (t *SetAssoc) hint(w int) {
	if w != t.recent[0] {
		t.recent[0], t.recent[1] = w, t.recent[0]
	}
}

// load installs tag in way w, stamped with the current time.
func (t *SetAssoc) load(w int, tag uint64) {
	t.tags[w] = tag
	t.stamps[w] = stamp{lastUse: t.clock, loadedAt: t.clock}
	if t.sets == 1 {
		t.hint(w)
	}
}

// empty takes the first empty way of the set starting at base, or
// returns -1 if the set is full.
func (t *SetAssoc) empty(base int) int {
	for i, g := range t.tags[base : base+t.cfg.Ways] {
		if g == 0 {
			t.occupied++
			return base + i
		}
	}
	return -1
}

// pickVictim returns the way of the full set starting at base that the
// replacement policy evicts.
func (t *SetAssoc) pickVictim(base int) int {
	set := t.stamps[base : base+t.cfg.Ways]
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

// Invalidate implements TLB. Because IndexSmall can replicate one large
// page across several sets, invalidation scans the whole array; TLBs are
// tiny (tens of entries) and invalidations are rare (page promotions), so
// this costs nothing measurable. A recent-way hint may go on naming an
// emptied way: Access verifies hints by their tags.
func (t *SetAssoc) Invalidate(p policy.Page) int {
	tag := tagOf(p)
	n := 0
	for i, g := range t.tags {
		if g == tag {
			t.tags[i] = 0
			n++
		}
	}
	t.stats.Invalidations += uint64(n)
	t.occupied -= n
	return n
}

// Flush implements TLB.
func (t *SetAssoc) Flush() {
	clear(t.tags)
	t.occupied = 0
}

// Stats implements TLB.
func (t *SetAssoc) Stats() Stats { return t.stats }

// Occupied returns the number of valid entries; useful to observe
// underutilization (e.g. split TLBs with skewed page-size mixes).
func (t *SetAssoc) Occupied() int { return t.occupied }

// Contains reports whether the page currently has a valid entry, without
// disturbing replacement state. For tests and inspection.
func (t *SetAssoc) Contains(p policy.Page) bool {
	return slices.Contains(t.tags, tagOf(p))
}

// Compile-time interface check.
var _ TLB = (*SetAssoc)(nil)

// Probe looks the page up and refreshes its replacement state on a hit,
// but does not install anything on a miss and does not touch Stats.
// It is the building block wrappers (victim buffers, prefetchers) use
// to compose TLBs while keeping their own accounting.
func (t *SetAssoc) Probe(va addr.VA, p policy.Page) bool {
	base := int(t.index(va, p)) * t.cfg.Ways
	i := slices.Index(t.tags[base:base+t.cfg.Ways], tagOf(p))
	if i < 0 {
		return false
	}
	t.clock++
	t.touch(base + i)
	return true
}

// Insert installs the page (evicting if the set is full), returning the
// evicted page if a valid entry was displaced. Like Probe it does not
// touch Stats. The inserted entry's set placement follows the same
// index scheme as Access.
func (t *SetAssoc) Insert(va addr.VA, p policy.Page) (evicted policy.Page, hadEvict bool) {
	t.clock++
	base := int(t.index(va, p)) * t.cfg.Ways
	tag := tagOf(p)
	if i := slices.Index(t.tags[base:base+t.cfg.Ways], tag); i >= 0 {
		t.touch(base + i)
		return policy.Page{}, false // already present
	}
	w := t.empty(base)
	if w < 0 {
		w = base + t.pickVictim(base)
		old := t.tags[w]
		evicted, hadEvict = policy.Page{Number: addr.PN(old >> 6), Shift: uint(old & 63)}, true
	}
	t.load(w, tag)
	return evicted, hadEvict
}

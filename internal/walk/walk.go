// Package walk models the multi-level radix page walk a TLB miss
// triggers, replacing the paper's flat 20/25-cycle miss penalty with an
// emergent cost: how many radix levels the walk descends, which levels
// the MMU's page-walk caches (PWCs) short-circuit, and where the
// per-level loads land in a memory-side cache. The radix layout derives
// from addr.SizeClasses — a larger page terminates the walk early
// (fewer dependent loads), which is the modern mechanism behind the
// related pagewalk literature's results (VESPA, "TLB and Pagewalk
// Performance in Multicore Architectures").
//
// The model is deliberately deterministic and shard-mergeable: every
// counter (cycles included) is an integer flow counter, PWC replacement
// is LRU with a deterministic tie-break, and the memory-side cache is
// the repository's existing set-associative LRU model. A walker's
// per-walk charge is
//
//	BaseCycles + Σ per-level load charge
//
// where each load pays HitCycles or MissCycles depending on the
// memory-side cache, and PWC hits skip the loads above the cached
// level. Configured with the PWCs and memory cache disabled and
// MissCycles = pagetable.LoadCycles, the charge collapses exactly to
// the handler cost model (20 cycles single-size, 25 two-size) — the
// differential tests pin that identity.
package walk

import (
	"fmt"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/cache"
	"twopage/internal/pagetable"
)

// Model defaults. The cycle charges keep the early-90s flavor of the
// pagetable cost model: a walk load that hits the memory-side cache
// costs one dependent load (pagetable.LoadCycles); one that misses goes
// to memory at six times that.
const (
	// DefaultPWCEntries is the per-interior-level page-walk-cache
	// capacity (x86 paging-structure caches are this small).
	DefaultPWCEntries = 8
	// DefaultMemBytes is the memory-side cache capacity reachable by
	// walk loads: 2KB of 32-byte lines (4 PTEs per line).
	DefaultMemBytes = 2048
	// DefaultMemWays is the memory-side cache associativity.
	DefaultMemWays = 4
	// DefaultHitCycles charges a walk load that hits the memory-side
	// cache — the handler model's dependent-load cost.
	DefaultHitCycles = uint64(pagetable.LoadCycles)
	// DefaultMissCycles charges a walk load that goes to memory.
	DefaultMissCycles = 6 * uint64(pagetable.LoadCycles)
)

// ptesPerLine is how many 8-byte descriptors share one memory-side
// cache line; lineAddr spaces synthesized addresses by it.
const pteBytes = 8

// HandlerBaseCycles returns the fixed per-walk charge outside the
// per-level loads: trap entry/exit plus the TLB insert, and for a
// multi-size handler the size probe. With flat per-level load charges
// this reconstructs pagetable.SingleSizeHandlerCycles (20) and
// TwoSizeHandlerCycles (25) exactly.
func HandlerBaseCycles(multi bool) uint64 {
	base := uint64(pagetable.TrapCycles + pagetable.InsertCycles)
	if multi {
		base += uint64(pagetable.SizeProbeCycles)
	}
	return base
}

// Config describes a walk model. The zero value is invalid; start from
// Default and override, or fill every field.
type Config struct {
	// Classes is the radix hierarchy the walk descends: class N-1 is
	// the root table, class 0 the leaf PTEs. A walk resolving at class
	// k performs N-k dependent loads, so larger pages terminate early.
	Classes addr.SizeClasses
	// PWCEntries is the page-walk-cache capacity per interior level;
	// 0 disables the PWCs (every walk starts at the root).
	PWCEntries int
	// MemBytes is the memory-side cache capacity in bytes; 0 disables
	// the cache, making every walk load pay MissCycles.
	MemBytes int
	// MemWays is the memory-side cache associativity (0 = DefaultMemWays
	// when the cache is enabled).
	MemWays int
	// HitCycles and MissCycles charge one walk load that hits or
	// misses the memory-side cache. MissCycles must be nonzero.
	HitCycles  uint64
	MissCycles uint64
	// BaseCycles is the fixed per-walk charge (trap, size probe,
	// insert). 0 lets core.WithWalkModel derive it from the policy
	// kind via HandlerBaseCycles.
	BaseCycles uint64
}

// Default returns the standard walk model over classes: PWCs on,
// memory-side cache on, handler-derived charges, BaseCycles left for
// the policy kind to resolve.
func Default(classes addr.SizeClasses) Config {
	return Config{
		Classes:    classes,
		PWCEntries: DefaultPWCEntries,
		MemBytes:   DefaultMemBytes,
		MemWays:    DefaultMemWays,
		HitCycles:  DefaultHitCycles,
		MissCycles: DefaultMissCycles,
	}
}

// Tuned returns Default(classes) with the two capacity knobs the
// commands expose applied: a zero knob keeps its default, a negative
// one disables its component (the PWCs for pwcEntries, the memory-side
// cache for memBytes), and a positive one sets its capacity.
func Tuned(classes addr.SizeClasses, pwcEntries, memBytes int) Config {
	cfg := Default(classes)
	if pwcEntries != 0 {
		cfg.PWCEntries = max(pwcEntries, 0)
	}
	if memBytes != 0 {
		cfg.MemBytes = max(memBytes, 0)
	}
	return cfg
}

// normalized validates and fills defaults without mutating c.
func (c Config) normalized() (Config, error) {
	if c.Classes.N() < 2 {
		return Config{}, fmt.Errorf("walk: need at least two size classes, got %d", c.Classes.N())
	}
	if c.PWCEntries < 0 {
		return Config{}, fmt.Errorf("walk: negative PWC capacity %d", c.PWCEntries)
	}
	if c.MemBytes < 0 {
		return Config{}, fmt.Errorf("walk: negative memory-cache capacity %d", c.MemBytes)
	}
	if c.MemBytes > 0 && c.MemWays == 0 {
		c.MemWays = DefaultMemWays
	}
	if c.MemBytes == 0 {
		c.MemWays = 0
	}
	if c.MissCycles == 0 {
		return Config{}, fmt.Errorf("walk: MissCycles must be nonzero (walk loads cannot be free)")
	}
	return c, nil
}

// Key returns the memoization-key fragment for the configuration,
// normalized first so equivalent spellings share engine units. Every
// field is spelled out: two configs with the same key charge the same
// cycles.
func (c Config) Key() (string, error) {
	cfg, err := c.normalized()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("sc")
	for i, s := range cfg.Classes.Shifts() {
		if i > 0 {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	fmt.Fprintf(&b, ".pwc%d.mem%db.w%d.h%d.m%d.base%d",
		cfg.PWCEntries, cfg.MemBytes, cfg.MemWays, cfg.HitCycles, cfg.MissCycles, cfg.BaseCycles)
	return b.String(), nil
}

// Stats counts walk activity. Every field is an integer flow counter —
// cycles included — so per-shard stats merge exactly by summation and
// warm-up baselines subtract exactly.
type Stats struct {
	// Walks counts modeled walks (one per first-TLB miss).
	Walks uint64
	// LoadsByClass[k] counts descriptor loads from class-k table nodes
	// actually performed (after PWC skips).
	LoadsByClass [addr.MaxSizeClasses]uint64
	// PWCHitsByClass and PWCMissesByClass count page-walk-cache probes
	// per interior class (classes 1..N-1; class 0 is never cached).
	PWCHitsByClass   [addr.MaxSizeClasses]uint64
	PWCMissesByClass [addr.MaxSizeClasses]uint64
	// PWCFlushes counts whole-PWC invalidations (the shootdown a
	// promotion or demotion forces).
	PWCFlushes uint64
	// MemHits and MemMisses split the performed loads by where they
	// landed in the memory-side cache (with the cache disabled every
	// load is a MemMiss).
	MemHits   uint64
	MemMisses uint64
	// Cycles is the total charge across all walks, in integer cycles.
	Cycles uint64
}

// Merge folds another shard's counters into s; all fields are flow
// counters, so the sum is exact.
func (s *Stats) Merge(o Stats) {
	s.Walks += o.Walks
	for k := range s.LoadsByClass {
		s.LoadsByClass[k] += o.LoadsByClass[k]
	}
	for k := range s.PWCHitsByClass {
		s.PWCHitsByClass[k] += o.PWCHitsByClass[k]
	}
	for k := range s.PWCMissesByClass {
		s.PWCMissesByClass[k] += o.PWCMissesByClass[k]
	}
	s.PWCFlushes += o.PWCFlushes
	s.MemHits += o.MemHits
	s.MemMisses += o.MemMisses
	s.Cycles += o.Cycles
}

// Sub removes a previously recorded baseline from s (warm-up
// roll-back); integer subtraction, exact.
func (s *Stats) Sub(o Stats) {
	s.Walks -= o.Walks
	for k := range s.LoadsByClass {
		s.LoadsByClass[k] -= o.LoadsByClass[k]
	}
	for k := range s.PWCHitsByClass {
		s.PWCHitsByClass[k] -= o.PWCHitsByClass[k]
	}
	for k := range s.PWCMissesByClass {
		s.PWCMissesByClass[k] -= o.PWCMissesByClass[k]
	}
	s.PWCFlushes -= o.PWCFlushes
	s.MemHits -= o.MemHits
	s.MemMisses -= o.MemMisses
	s.Cycles -= o.Cycles
}

// Loads returns total performed walk loads across classes.
func (s Stats) Loads() uint64 {
	var n uint64
	for _, v := range s.LoadsByClass {
		n += v
	}
	return n
}

// PWCHits returns total page-walk-cache hits across levels.
func (s Stats) PWCHits() uint64 {
	var n uint64
	for _, v := range s.PWCHitsByClass {
		n += v
	}
	return n
}

// PWCMisses returns total page-walk-cache misses across levels.
func (s Stats) PWCMisses() uint64 {
	var n uint64
	for _, v := range s.PWCMissesByClass {
		n += v
	}
	return n
}

// PWCHitRatio returns PWC hits over probes (0 if never probed).
func (s Stats) PWCHitRatio() float64 {
	probes := s.PWCHits() + s.PWCMisses()
	if probes == 0 {
		return 0
	}
	return float64(s.PWCHits()) / float64(probes)
}

// MemHitRatio returns memory-side cache hits over performed loads
// (0 if no loads).
func (s Stats) MemHitRatio() float64 {
	loads := s.MemHits + s.MemMisses
	if loads == 0 {
		return 0
	}
	return float64(s.MemHits) / float64(loads)
}

// CyclesPerWalk returns the emergent average miss penalty: total walk
// cycles over walks (0 if no walks happened).
func (s Stats) CyclesPerWalk() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Walks)
}

// Walker charges modeled walks. Build with New/MustNew; state is plain
// shard-local data (PWC tables, a cache model, counters), so per-shard
// walkers merge by summing their Stats.
type Walker struct {
	classes addr.SizeClasses
	base    uint64
	hit     uint64
	miss    uint64
	pwcCap  int
	pwc     [addr.MaxSizeClasses]pwcache // interior classes 1..N-1
	mem     *cache.Cache                 // nil when MemBytes == 0
	stats   Stats
}

// New builds a walker from cfg. A zero cfg.BaseCycles is accepted and
// defaults to the multi-size handler base (core.WithWalkModel resolves
// the policy-appropriate base before construction).
func New(cfg Config) (*Walker, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if cfg.BaseCycles == 0 {
		cfg.BaseCycles = HandlerBaseCycles(true)
	}
	w := &Walker{
		classes: cfg.Classes,
		base:    cfg.BaseCycles,
		hit:     cfg.HitCycles,
		miss:    cfg.MissCycles,
		pwcCap:  cfg.PWCEntries,
	}
	if cfg.PWCEntries > 0 {
		for k := 1; k < cfg.Classes.N(); k++ {
			w.pwc[k] = newPWCache(cfg.PWCEntries)
		}
	}
	if cfg.MemBytes > 0 {
		mem, err := cache.New(cache.Config{Size: cfg.MemBytes, Ways: cfg.MemWays})
		if err != nil {
			return nil, fmt.Errorf("walk: memory-side cache: %w", err)
		}
		w.mem = mem
	}
	return w, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Walker {
	w, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// lineAddr synthesizes the memory address of the class-k descriptor
// for va, so the memory-side cache sees the real locality structure:
// adjacent class-k page numbers share a cache line (8-byte PTEs), and
// a level tag in the high bits keeps the per-class descriptor arrays
// from aliasing each other.
func (w *Walker) lineAddr(va addr.VA, k int) addr.VA {
	return addr.VA(uint64(w.classes.Page(va, k))*pteBytes | uint64(k)<<58)
}

// Walk charges one modeled page walk for va. levels is how many radix
// levels the table walk descends (pagetable.Walk.Levels): the walk
// visits classes N-1 down to N-levels, so a large-page mapping (or a
// completely unmapped root region) costs fewer loads. It returns the
// cycles charged, which are also accumulated into Stats.
//
// The PWCs are probed deepest-first over the walk's interior classes;
// a hit resumes the walk just below the cached level, skipping every
// load above it. Interior descriptors actually loaded are inserted,
// so the next walk through the same region starts lower.
//
//paperlint:hot
func (w *Walker) Walk(va addr.VA, levels int) uint64 {
	n := w.classes.N()
	if levels < 1 {
		levels = 1
	}
	if levels > n {
		levels = n
	}
	low := n - levels // deepest class this walk reaches
	w.stats.Walks++
	cycles := w.base
	start := n - 1
	if w.pwcCap > 0 {
		for k := low + 1; k <= n-1; k++ {
			if w.pwc[k].lookup(uint64(w.classes.Page(va, k))) {
				w.stats.PWCHitsByClass[k]++
				start = k - 1
				break
			}
			w.stats.PWCMissesByClass[k]++
		}
	}
	for k := start; k >= low; k-- {
		w.stats.LoadsByClass[k]++
		if w.mem != nil && w.mem.Access(w.lineAddr(va, k)) {
			w.stats.MemHits++
			cycles += w.hit
		} else {
			w.stats.MemMisses++
			cycles += w.miss
		}
		if k > low && w.pwcCap > 0 {
			// An interior descriptor was loaded; cache it.
			w.pwc[k].insert(uint64(w.classes.Page(va, k)))
		}
	}
	w.stats.Cycles += cycles
	return cycles
}

// FlushPWC empties every page-walk cache — the shootdown a promotion
// or demotion forces, since the remapped region's interior descriptors
// change shape. The memory-side cache is untouched (it is coherent
// with the table by construction). No-op when PWCs are disabled.
func (w *Walker) FlushPWC() {
	if w.pwcCap == 0 {
		return
	}
	w.stats.PWCFlushes++
	for k := 1; k < w.classes.N(); k++ {
		w.pwc[k].flush()
	}
}

// Stats returns a snapshot of the counters.
func (w *Walker) Stats() Stats { return w.stats }

// Classes returns the radix hierarchy the walker descends.
func (w *Walker) Classes() addr.SizeClasses { return w.classes }

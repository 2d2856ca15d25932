// Package obs is the run-report observability layer: it aggregates the
// plain counter structs the simulation packages already keep (tlb.Stats,
// physmem.Stats, pagetable.Stats, core.MemoryStats, trace.DecodeStats,
// policy.TwoSizeStats) into one schema-versioned JSON report per command
// invocation.
//
// The design keeps the hot paths untouched: simulation code counts into
// its own flat uint64 structs exactly as before, each engine unit
// returns its merged Counters alongside its result, and a Collector
// folds the per-unit counters together off the hot path. Merging is
// deterministic — pass entries are emitted under sorted keys, and every
// engine unit executes exactly once per run regardless of parallelism —
// so the counter sections of a report are byte-identical across -j
// values. Wall-clock fields (WallMS, per-experiment timings) and the
// parallelism level are the only run-dependent fields; tests mask them.
//
// obs sits at the bottom of the dependency tree (standard library
// only): the simulation packages convert their own stats into Counters,
// not the other way around, which keeps obs importable from core and
// the engine without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Schema identifies the report format. Bump the suffix when a field
// changes meaning or is removed; adding fields is backward-compatible
// and does not bump it.
const Schema = "twopage.run-report/v1"

// Counters is the flat counter block threaded through the simulation
// layers: every field is a plain uint64, there are no interfaces or
// pointers, and Add performs no allocation — safe to hold by value in
// structs returned from hot passes. Counts sum under Add; high-water
// marks (BuddyPeakResident) merge by max.
type Counters struct {
	// Passes counts simulation passes folded into this block.
	Passes uint64 `json:"passes,omitempty"`
	// Refs and Instrs count simulated references and instruction
	// fetches.
	Refs   uint64 `json:"refs,omitempty"`
	Instrs uint64 `json:"instrs,omitempty"`

	// TLB activity, split by page size as in tlb.Stats.
	TLBAccesses      uint64 `json:"tlb_accesses,omitempty"`
	TLBHitsSmall     uint64 `json:"tlb_hits_small,omitempty"`
	TLBHitsLarge     uint64 `json:"tlb_hits_large,omitempty"`
	TLBMissesSmall   uint64 `json:"tlb_misses_small,omitempty"`
	TLBMissesLarge   uint64 `json:"tlb_misses_large,omitempty"`
	TLBInvalidations uint64 `json:"tlb_invalidations,omitempty"`

	// TLB activity on the third and fourth size classes of an N-size
	// hierarchy. Classes 0 and 1 keep the small/large keys above so
	// every two-size report stays byte-identical; these stay zero (and
	// thus omitted) unless a run actually uses more than two sizes.
	TLBHitsSize2   uint64 `json:"tlb_hits_size2,omitempty"`
	TLBHitsSize3   uint64 `json:"tlb_hits_size3,omitempty"`
	TLBMissesSize2 uint64 `json:"tlb_misses_size2,omitempty"`
	TLBMissesSize3 uint64 `json:"tlb_misses_size3,omitempty"`

	// Policy transitions carried out during the pass. Promotions and
	// Demotions count class-1 (large-page) transitions; the Size2/Size3
	// variants count transitions into/out of the upper classes of an
	// N-size ladder and stay zero for two-size runs.
	Promotions      uint64 `json:"promotions,omitempty"`
	Demotions       uint64 `json:"demotions,omitempty"`
	PromotionsSize2 uint64 `json:"promotions_size2,omitempty"`
	PromotionsSize3 uint64 `json:"promotions_size3,omitempty"`
	DemotionsSize2  uint64 `json:"demotions_size2,omitempty"`
	DemotionsSize3  uint64 `json:"demotions_size3,omitempty"`

	// MMU activity (full-translation-path experiments only).
	// EvictionsSize2/3 split evictions of upper-class pages out as the
	// TLB counters do; they stay zero for two-size runs.
	PTWalks        uint64 `json:"pt_walks,omitempty"`
	Faults         uint64 `json:"faults,omitempty"`
	Evictions      uint64 `json:"evictions,omitempty"`
	EvictionsSize2 uint64 `json:"evictions_size2,omitempty"`
	EvictionsSize3 uint64 `json:"evictions_size3,omitempty"`
	CopiedBytes    uint64 `json:"copied_bytes,omitempty"`

	// Modeled page-walk activity (internal/walk; WithWalkModel runs
	// only). WalkCycles is the integer walk cost total, WalkLoads the
	// descriptor loads actually performed after page-walk-cache skips,
	// and the hit/miss pairs split PWC probes and memory-side accesses.
	WalkCycles    uint64 `json:"walk_cycles,omitempty"`
	WalkLoads     uint64 `json:"walk_loads,omitempty"`
	WalkPWCHits   uint64 `json:"walk_pwc_hits,omitempty"`
	WalkPWCMisses uint64 `json:"walk_pwc_misses,omitempty"`
	WalkMemHits   uint64 `json:"walk_mem_hits,omitempty"`
	WalkMemMisses uint64 `json:"walk_mem_misses,omitempty"`

	// Buddy-allocator activity (physmem.Stats). BuddyPeakResident is
	// the high-water mark of allocated 4KB frames and merges by max.
	BuddySplits       uint64 `json:"buddy_splits,omitempty"`
	BuddyCoalesces    uint64 `json:"buddy_coalesces,omitempty"`
	BuddyPeakResident uint64 `json:"buddy_peak_resident,omitempty"`

	// WSSPages counts distinct working-set pages observed by static
	// working-set passes (base page size).
	WSSPages uint64 `json:"wss_pages,omitempty"`

	// Trace decode work (v2 mmap pipeline).
	DecodedRefs   uint64 `json:"decoded_refs,omitempty"`
	DecodedBlocks uint64 `json:"decoded_blocks,omitempty"`
	DecodedBytes  uint64 `json:"decoded_bytes,omitempty"`
}

// Add merges o into c: counts sum, high-water marks take the max. It
// allocates nothing.
func (c *Counters) Add(o Counters) {
	c.Passes += o.Passes
	c.Refs += o.Refs
	c.Instrs += o.Instrs
	c.TLBAccesses += o.TLBAccesses
	c.TLBHitsSmall += o.TLBHitsSmall
	c.TLBHitsLarge += o.TLBHitsLarge
	c.TLBMissesSmall += o.TLBMissesSmall
	c.TLBMissesLarge += o.TLBMissesLarge
	c.TLBInvalidations += o.TLBInvalidations
	c.TLBHitsSize2 += o.TLBHitsSize2
	c.TLBHitsSize3 += o.TLBHitsSize3
	c.TLBMissesSize2 += o.TLBMissesSize2
	c.TLBMissesSize3 += o.TLBMissesSize3
	c.Promotions += o.Promotions
	c.Demotions += o.Demotions
	c.PromotionsSize2 += o.PromotionsSize2
	c.PromotionsSize3 += o.PromotionsSize3
	c.DemotionsSize2 += o.DemotionsSize2
	c.DemotionsSize3 += o.DemotionsSize3
	c.PTWalks += o.PTWalks
	c.Faults += o.Faults
	c.Evictions += o.Evictions
	c.EvictionsSize2 += o.EvictionsSize2
	c.EvictionsSize3 += o.EvictionsSize3
	c.CopiedBytes += o.CopiedBytes
	c.WalkCycles += o.WalkCycles
	c.WalkLoads += o.WalkLoads
	c.WalkPWCHits += o.WalkPWCHits
	c.WalkPWCMisses += o.WalkPWCMisses
	c.WalkMemHits += o.WalkMemHits
	c.WalkMemMisses += o.WalkMemMisses
	c.BuddySplits += o.BuddySplits
	c.BuddyCoalesces += o.BuddyCoalesces
	if o.BuddyPeakResident > c.BuddyPeakResident {
		c.BuddyPeakResident = o.BuddyPeakResident
	}
	c.WSSPages += o.WSSPages
	c.DecodedRefs += o.DecodedRefs
	c.DecodedBlocks += o.DecodedBlocks
	c.DecodedBytes += o.DecodedBytes
}

// Pass is one executed engine unit's counters under its memoization key.
type Pass struct {
	Key string `json:"key"`
	Counters
}

// Collector accumulates per-pass counters from worker goroutines. The
// zero value is not usable; construct with NewCollector. All methods
// are safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	passes map[string]Counters
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{passes: make(map[string]Counters)}
}

// Record stores the counters of one executed unit under its key. A key
// recorded twice (a unit retried after a canceled first requester)
// overwrites: the same key always denotes the same deterministic work,
// so last-write-wins keeps the report independent of retry order.
func (c *Collector) Record(key string, ct Counters) {
	c.mu.Lock()
	c.passes[key] = ct
	c.mu.Unlock()
}

// Passes returns the recorded per-pass counters sorted by key.
func (c *Collector) Passes() []Pass {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.passes))
	for k := range c.passes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Pass, len(keys))
	for i, k := range keys {
		out[i] = Pass{Key: k, Counters: c.passes[k]}
	}
	return out
}

// Totals merges every recorded pass into one counter block. The merge
// runs over sorted keys; with sums and maxes it is order-independent
// anyway, but sorting keeps the invariant obvious.
func (c *Collector) Totals() Counters {
	var total Counters
	for _, p := range c.Passes() {
		total.Add(p.Counters)
	}
	return total
}

// Len returns how many distinct passes have been recorded.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.passes)
}

// EngineStats mirrors the experiment engine's pool/cache counters in
// report form (defined here so obs does not import the engine).
type EngineStats struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	CacheHits int64 `json:"cache_hits"`
}

// ExperimentStatus reports one experiment's outcome and wall time.
type ExperimentStatus struct {
	ID string `json:"id"`
	// WallMS is wall-clock and therefore run-dependent; tests mask it.
	WallMS int64 `json:"wall_ms"`
	// Error is empty for a successful experiment.
	Error string `json:"error,omitempty"`
}

// Report is one command invocation's run report. Counter sections
// (Engine, Totals, Passes) are deterministic for a given tool, scale
// and workload set; Parallelism, WallMS and the per-experiment timings
// are the only fields that vary between otherwise identical runs.
type Report struct {
	Schema    string   `json:"schema"`
	Tool      string   `json:"tool"`
	Scale     float64  `json:"scale,omitempty"`
	Workloads []string `json:"workloads,omitempty"`

	Parallelism int   `json:"parallelism,omitempty"`
	WallMS      int64 `json:"wall_ms"`

	Engine      *EngineStats       `json:"engine,omitempty"`
	Totals      Counters           `json:"totals"`
	Passes      []Pass             `json:"passes,omitempty"`
	Experiments []ExperimentStatus `json:"experiments,omitempty"`
}

// New returns a report stamped with the schema version and tool name.
func New(tool string) *Report {
	return &Report{Schema: Schema, Tool: tool}
}

// WriteJSON emits the report as indented JSON followed by a newline.
// Field order is fixed by the struct definitions and passes are sorted
// by key, so the encoding is stable.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding run report: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("obs: writing run report: %w", err)
	}
	return nil
}

// Write resolves a -stats destination: "-" writes to dash (the
// command's stderr, keeping stdout byte-identical to a report-less
// run), anything else creates or truncates that file.
func (r *Report) Write(spec string, dash io.Writer) error {
	if spec == "-" {
		return r.WriteJSON(dash)
	}
	f, err := os.Create(spec)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

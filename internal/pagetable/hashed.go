package pagetable

import (
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// HashedTable is the alternative page-table organization Section 2.3
// sketches for two page sizes: a hashed (inverted-style) table whose
// miss handler does not know the faulting page's size and therefore
// probes the table "trying all page sizes in some order". Each probe
// hashes the page number at one candidate size and walks the bucket
// chain; the probe order trades small-page against large-page miss
// latency.
type HashedTable struct {
	buckets [][]hashedEntry
	order   ProbeOrder
	small   uint
	large   uint
	stats   HashedStats
}

type hashedEntry struct {
	page  policy.Page
	frame addr.PN
}

// ProbeOrder selects which page size a hashed lookup tries first.
type ProbeOrder uint8

// Probe orders.
const (
	// SmallFirst favours small-page misses: large-page lookups pay a
	// second hash+chain.
	SmallFirst ProbeOrder = iota
	// LargeFirst favours large-page misses, sensible when the OS makes
	// heavy use of large pages.
	LargeFirst
)

// String names the probe order.
func (o ProbeOrder) String() string {
	if o == LargeFirst {
		return "large-first"
	}
	return "small-first"
}

// HashedStats counts hashed-table activity.
type HashedStats struct {
	Lookups    uint64
	Misses     uint64
	Probes     uint64 // hash-and-walk attempts across all lookups
	ChainSteps uint64 // chain links traversed
}

// HashWalk reports the cost of one hashed lookup.
type HashWalk struct {
	Found      bool
	Large      bool
	Probes     int
	ChainSteps int
	Cycles     float64
}

// NewHashed returns a hashed table with the given bucket count (a power
// of two) and probe order, for 4KB/32KB pages.
func NewHashed(buckets int, order ProbeOrder) (*HashedTable, error) {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("pagetable: bucket count %d not a positive power of two", buckets)
	}
	return &HashedTable{
		buckets: make([][]hashedEntry, buckets),
		order:   order,
		small:   addr.BlockShift,
		large:   addr.ChunkShift,
	}, nil
}

func (h *HashedTable) hash(p policy.Page) int {
	x := uint64(p.Number)*0x9E3779B97F4A7C15 ^ uint64(p.Shift)<<57
	x ^= x >> 29
	return int(x & uint64(len(h.buckets)-1))
}

// Insert adds or replaces the mapping for page p.
func (h *HashedTable) Insert(p policy.Page, frame addr.PN) {
	b := h.hash(p)
	for i := range h.buckets[b] {
		if h.buckets[b][i].page == p {
			h.buckets[b][i].frame = frame
			return
		}
	}
	h.buckets[b] = append(h.buckets[b], hashedEntry{page: p, frame: frame})
}

// Remove deletes the mapping for page p, reporting whether it existed.
func (h *HashedTable) Remove(p policy.Page) bool {
	b := h.hash(p)
	for i := range h.buckets[b] {
		if h.buckets[b][i].page == p {
			last := len(h.buckets[b]) - 1
			h.buckets[b][i] = h.buckets[b][last]
			h.buckets[b] = h.buckets[b][:last]
			return true
		}
	}
	return false
}

// probe walks one bucket for the page, returning the frame and how many
// chain links were loaded.
func (h *HashedTable) probe(p policy.Page) (addr.PN, int, bool) {
	b := h.hash(p)
	for i, e := range h.buckets[b] {
		if e.page == p {
			return e.frame, i + 1, true
		}
	}
	return 0, len(h.buckets[b]), false
}

// Lookup resolves va without knowing its page size, probing the sizes
// in the configured order. The returned walk carries the full handler
// cost: hashedFixedCycles, plus hashedProbeCycles per probe and
// hashedChainCycles per chain link.
func (h *HashedTable) Lookup(va addr.VA) (PTE, HashWalk) {
	h.stats.Lookups++
	sizes := [2]uint{h.small, h.large}
	if h.order == LargeFirst {
		sizes = [2]uint{h.large, h.small}
	}
	var w HashWalk
	for _, shift := range sizes {
		p := policy.Page{Number: addr.Page(va, shift), Shift: shift}
		frame, steps, ok := h.probe(p)
		w.Probes++
		w.ChainSteps += steps
		if ok {
			w.Found = true
			w.Large = shift == h.large
			h.finish(&w)
			return PTE{Frame: frame, Valid: true, Large: w.Large}, w
		}
	}
	h.stats.Misses++
	h.finish(&w)
	return PTE{}, w
}

func (h *HashedTable) finish(w *HashWalk) {
	w.Cycles = hashedFixedCycles + hashedProbeCycles*float64(w.Probes) + hashedChainCycles*float64(w.ChainSteps)
	h.stats.Probes += uint64(w.Probes)
	h.stats.ChainSteps += uint64(w.ChainSteps)
}

// Stats returns a snapshot of the counters.
func (h *HashedTable) Stats() HashedStats { return h.stats }

// Load returns the average chain length over non-empty buckets and the
// number of mapped entries; useful to check hash quality in tests.
func (h *HashedTable) Load() (avgChain float64, entries int) {
	used := 0
	for _, b := range h.buckets {
		if len(b) > 0 {
			used++
			entries += len(b)
		}
	}
	if used == 0 {
		return 0, 0
	}
	return float64(entries) / float64(used), entries
}

// Package pagetable implements the software page-table organization a
// two-page-size operating system needs (paper Section 2.3), and the
// cycle-cost model that justifies the paper's miss-penalty estimates:
// about 20 cycles for a software-handled miss with one page size and
// about 25% more when the handler must also discover the page size.
//
// The structure generalizes the paper's chunk model: NTable is a radix
// tree over a size hierarchy, and over the paper's 4KB/32KB pair the
// address space is an array of 32KB chunks, each mapped chunk either
// one large-page PTE or a block table of eight small-page PTEs. A miss
// handler probes the chunk entry (one load), tests the size bit (the
// two-size overhead), and either uses the large PTE or loads the small
// PTE from the block table. Promote and Demote implement the remapping
// that the page-size assignment policy triggers, tracking the copy
// traffic they cause (Section 3.4's promotion costs). The hashed table
// and the software TLB (STLB) are the alternative organizations
// Section 2.3 sketches.
package pagetable

import (
	"twopage/internal/addr"
)

// Cycle cost model for software miss handling, loosely itemized from
// the SPARC-style handlers the paper estimated from (Section 2.3):
// trap entry/exit, per-level table loads, and TLB entry insertion.
const (
	// TrapCycles covers exception entry, register save/restore, return.
	TrapCycles = 8.0
	// LoadCycles is the cost of one dependent table load.
	LoadCycles = 4.0
	// InsertCycles writes the TLB entry.
	InsertCycles = 4.0
	// SizeProbeCycles is the extra work of a two-size handler: fetch the
	// size bit, test, branch to the right PTE format — the paper's
	// "about 25% longer" (Section 2.3).
	SizeProbeCycles = 5.0
)

// Cycle costs of the Section 2.3 alternatives' handlers. A hashed walk
// costs hashedFixedCycles, plus hashedProbeCycles for each page size it
// tries and hashedChainCycles for each chain link it loads.
const (
	// hashedFixedCycles covers trap entry and return (7), merging the
	// size into the TLB tag (1) and the TLB write (2).
	hashedFixedCycles = 10.0
	// hashedProbeCycles forms and hashes the page number at one
	// candidate size (1 + 1) and loads the bucket head (4).
	hashedProbeCycles = 6.0
	// hashedChainCycles loads one chain link (4) and tests its tag (1).
	hashedChainCycles = 5.0
	// STLBProbeCycles is the cost of one software-cache probe: form the
	// index (1 + 1), load the entry (4) and compare the tag (1). The trap
	// is not included; the caller charges it once.
	STLBProbeCycles = 7.0
)

// SingleSizeHandlerCycles returns the modelled cost of a one-page-size
// software miss handler: trap + two-level walk + insert = 20 cycles,
// matching the paper's assumed penalty.
func SingleSizeHandlerCycles() float64 {
	return TrapCycles + 2*LoadCycles + InsertCycles
}

// TwoSizeHandlerCycles returns the modelled cost of a two-page-size
// handler: the single-size cost plus the size probe = 25 cycles (25%
// more), matching the paper's assumption.
func TwoSizeHandlerCycles() float64 {
	return SingleSizeHandlerCycles() + SizeProbeCycles
}

// PTE is a page-table entry.
type PTE struct {
	Frame addr.PN // physical frame number (at the page's own size)
	Valid bool
	Large bool // set on 32KB mappings
}

// Walk reports what a lookup cost.
type Walk struct {
	Found  bool
	Levels int     // dependent loads performed
	Cycles float64 // full handler cost for this walk
	Large  bool    // resolved to a non-base-class mapping
	Class  int     // size class the walk resolved to (0 = base page)
}

// Stats counts page-table activity.
type Stats struct {
	Lookups     uint64
	Misses      uint64 // lookups that found no valid mapping
	Promotions  uint64
	Demotions   uint64
	CopiedBytes uint64 // bytes copied by promotions/demotions
}

// Add folds another table's counters into s (shard merge). All fields
// are flow counters, so the sum is exact.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Misses += o.Misses
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.CopiedBytes += o.CopiedBytes
}

// Sub removes a previously recorded baseline from s, leaving the
// activity after the snapshot (warm-up roll-back).
func (s *Stats) Sub(o Stats) {
	s.Lookups -= o.Lookups
	s.Misses -= o.Misses
	s.Promotions -= o.Promotions
	s.Demotions -= o.Demotions
	s.CopiedBytes -= o.CopiedBytes
}

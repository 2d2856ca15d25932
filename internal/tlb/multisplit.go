package tlb

import (
	"fmt"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/policy"
)

// MultiSplit generalizes SplitTLB to N size classes: one sub-TLB per
// class, all probed in parallel, each indexed by its own class's
// page-number bits (so every half gets exact indexing for the only
// size it ever sees). It is the natural hardware answer to the paper's
// option (c) once the hierarchy grows past two sizes — and inherits,
// per class, the same utilization hazard the paper notes for the
// two-way split: a class the policy never assigns leaves its half idle.
type MultiSplit struct {
	classes addr.SizeClasses
	halves  []*SetAssoc
}

// NewMultiSplit builds a per-class split TLB. Each config entry is the
// geometry of one half, in class order; all halves share the hierarchy
// (taken from the first config, defaulting to 4KB/32KB), and each
// half's Index is forced to its own class.
func NewMultiSplit(cfgs []Config) (*MultiSplit, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tlb: multi-split needs at least one half")
	}
	classes, err := cfgs[0].Classes()
	if err != nil {
		return nil, fmt.Errorf("half 0: %w", err)
	}
	if len(cfgs) != classes.N() {
		return nil, fmt.Errorf("tlb: %d halves for %d size classes", len(cfgs), classes.N())
	}
	ms := &MultiSplit{classes: classes}
	for k, cfg := range cfgs {
		cfg.Shifts = classes.Shifts()
		cfg.Index = IndexByClass(k)
		half, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("half %d: %w", k, err)
		}
		ms.halves = append(ms.halves, half)
	}
	return ms, nil
}

// Access implements TLB, routing by the page's size class.
//
//paperlint:hot
func (t *MultiSplit) Access(va addr.VA, p policy.Page) bool {
	return t.halves[t.classes.ClassOf(uint(p.Shift))].Access(va, p)
}

// Invalidate implements TLB.
func (t *MultiSplit) Invalidate(p policy.Page) int {
	return t.halves[t.classes.ClassOf(uint(p.Shift))].Invalidate(p)
}

// Flush implements TLB.
func (t *MultiSplit) Flush() {
	for _, h := range t.halves {
		h.Flush()
	}
}

// Stats implements TLB, merging all halves.
func (t *MultiSplit) Stats() Stats {
	s := NewStats(t.classes)
	for _, h := range t.halves {
		s.Merge(h.Stats())
	}
	return s
}

// Entries implements TLB.
func (t *MultiSplit) Entries() int {
	n := 0
	for _, h := range t.halves {
		n += h.Entries()
	}
	return n
}

// Name implements TLB.
func (t *MultiSplit) Name() string {
	var b strings.Builder
	b.WriteString("split ")
	for i, h := range t.halves {
		if i > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", h.Entries())
	}
	b.WriteString("-entry per-class")
	return b.String()
}

// Classes returns the hierarchy the split is wired for.
func (t *MultiSplit) Classes() addr.SizeClasses { return t.classes }

// Halves exposes the per-class sub-TLBs for inspection.
func (t *MultiSplit) Halves() []*SetAssoc { return t.halves }

var _ TLB = (*MultiSplit)(nil)

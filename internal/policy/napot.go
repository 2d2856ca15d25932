package policy

import (
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/htab"
)

// NapotConfig parameterizes the promote-once policy: a class-k region
// is promoted once enough of its base blocks have ever been touched,
// and never demoted. With the default thresholds this is RISC-V
// SVNAPOT's rule: a mapping is naturally aligned and fully populated.
type NapotConfig struct {
	// Classes is the page-size hierarchy; class 0 must be the 4KB block.
	// 2 to addr.MaxSizeClasses levels.
	Classes addr.SizeClasses
	// Thresholds[k-1] is how many base blocks of a class-k region must
	// have been touched before the region is promoted, in
	// [1, Classes.BaseFanout(k)]. Nil means every block.
	Thresholds []int
}

// Napot is the windowless alternative to the Ladder: it tracks first
// touches of base blocks and promotes a region the moment its count of
// touched blocks reaches the class threshold. Because population only
// grows, promotions are monotone and the policy needs no sliding
// window: it is the "less dynamic information" contrast case, both as
// SVNAPOT's full-contiguity rule and at the paper's two-size threshold.
type Napot struct {
	classes   addr.SizeClasses
	threshold [addr.MaxSizeClasses]int           // k >= 1: touched base blocks that promote a class-k region
	touched   *htab.Set                          // base blocks touched at least once
	full      [addr.MaxSizeClasses]*htab.Counter // k >= 1: region -> touched base blocks
	mapped    [addr.MaxSizeClasses]*htab.Set     // k >= 1: regions promoted to class k
	stats     LadderStats
}

// NewNapot returns the promote-once policy for the given configuration.
// It panics on a hierarchy of fewer than two classes, a base class
// other than the 4KB block, or thresholds of the wrong length or out of
// range.
func NewNapot(cfg NapotConfig) *Napot {
	n := cfg.Classes.N()
	if n < 2 {
		panic(fmt.Sprintf("policy: napot needs at least two size classes, got %d", n))
	}
	if cfg.Classes.Shift(0) != addr.BlockShift {
		panic(fmt.Sprintf("policy: napot base class must be the 4KB block, got shift %d",
			cfg.Classes.Shift(0)))
	}
	if cfg.Thresholds != nil && len(cfg.Thresholds) != n-1 {
		panic(fmt.Sprintf("policy: napot needs %d thresholds, got %d", n-1, len(cfg.Thresholds)))
	}
	p := &Napot{classes: cfg.Classes, touched: htab.NewSet(1 << 10)}
	for k := 1; k < n; k++ {
		p.threshold[k] = cfg.Classes.BaseFanout(k)
		if cfg.Thresholds != nil {
			thr := cfg.Thresholds[k-1]
			if thr < 1 || thr > p.threshold[k] {
				panic(fmt.Sprintf("policy: napot class-%d threshold %d out of range [1,%d]",
					k, thr, p.threshold[k]))
			}
			p.threshold[k] = thr
		}
		p.full[k] = htab.NewCounter(1 << 8)
		p.mapped[k] = htab.NewSet(1 << 8)
	}
	return p
}

// SizeClasses implements MultiSize.
func (p *Napot) SizeClasses() addr.SizeClasses { return p.classes }

// Stats returns a snapshot of policy counters.
func (p *Napot) Stats() LadderStats {
	s := p.stats
	for k := 1; k < p.classes.N(); k++ {
		s.Mapped[k] = p.mapped[k].Len()
	}
	return s
}

// TopMappedClass implements MultiSize.
func (p *Napot) TopMappedClass(c addr.PN) int {
	for k := p.classes.N() - 1; k >= 1; k-- {
		if p.mapped[k].Has(uint64(p.classes.Up(c, 1, k))) {
			return k
		}
	}
	return 0
}

// Assign implements Assigner. A first touch of a base block bumps the
// population count of every enclosing region; each region whose count
// just reached its class threshold is promoted, and the event reports
// the topmost class promoted by this reference. Per-reference hot path:
// one set probe, plus counter updates only on first touches.
//
//paperlint:hot
func (p *Napot) Assign(va addr.VA) Result {
	p.stats.Refs++
	n := p.classes.N()
	var res Result
	b := addr.Block(va)
	if p.touched.Add(uint64(b)) {
		for k := 1; k < n; k++ {
			// A count grows by one per first touch, so it reaches the
			// threshold exactly once.
			r := p.classes.Page(va, k)
			if int(p.full[k].Add(uint64(r), 1)) == p.threshold[k] {
				p.mapped[k].Add(uint64(r))
				p.stats.Promotions[k]++
				res.Event, res.Chunk, res.Level = EventPromote, r, uint8(k)
			}
		}
	}
	for k := n - 1; k >= 1; k-- {
		r := p.classes.Page(va, k)
		if p.mapped[k].Has(uint64(r)) {
			p.stats.RefsByClass[k]++
			res.Page = Page{Number: r, Shift: p.classes.Shift(k)}
			return res
		}
	}
	p.stats.RefsByClass[0]++
	res.Page = Page{Number: b, Shift: addr.BlockShift}
	return res
}

// Name implements Assigner, e.g. "4KB/32KB/256KB napot".
func (p *Napot) Name() string { return p.classes.String() + " napot" }

var _ MultiSize = (*Napot)(nil)

package policy

import (
	"fmt"

	"twopage/internal/addr"
	"twopage/internal/htab"
)

// NapotConfig parameterizes the contiguity-driven assignment policy
// modeled on RISC-V SVNAPOT: a region is promoted to class k only once
// every base block inside it has been touched, i.e. the mapping is
// naturally aligned and fully populated. No reference window and no
// demotion — contiguity, once established, is assumed to persist.
type NapotConfig struct {
	// Classes is the page-size hierarchy; class 0 must be the 4KB block.
	// 2 to addr.MaxSizeClasses levels.
	Classes addr.SizeClasses
	// Deny, if non-nil, vetoes promotion of a specific class-k region.
	Deny func(level int, region addr.PN) bool
}

// Napot is the SVNAPOT-style alternative to the window-based Ladder: it
// tracks first touches of base blocks and promotes a region the moment
// the region becomes fully populated. Because population only grows,
// promotions are monotone and the policy needs no sliding window —
// making it the cheap-hardware contrast case for the ladder sweeps.
type Napot struct {
	cfg     NapotConfig
	touched *htab.Set                          // base blocks touched at least once
	full    [addr.MaxSizeClasses]*htab.Counter // k >= 1: region -> touched base blocks
	mapped  [addr.MaxSizeClasses]*htab.Set     // k >= 1: regions promoted to class k
	stats   LadderStats
}

// NewNapot returns the contiguity policy for the given configuration.
func NewNapot(cfg NapotConfig) *Napot {
	n := cfg.Classes.N()
	if n < 2 {
		panic(fmt.Sprintf("policy: napot needs at least two size classes, got %d", n))
	}
	if cfg.Classes.Shift(0) != addr.BlockShift {
		panic(fmt.Sprintf("policy: napot base class must be the 4KB block, got shift %d",
			cfg.Classes.Shift(0)))
	}
	p := &Napot{cfg: cfg, touched: htab.NewSet(1 << 10)}
	for k := 1; k < n; k++ {
		p.full[k] = htab.NewCounter(1 << 8)
		p.mapped[k] = htab.NewSet(1 << 8)
	}
	return p
}

// Config returns the policy's configuration.
func (p *Napot) Config() NapotConfig { return p.cfg }

// SizeClasses implements MultiSize.
func (p *Napot) SizeClasses() addr.SizeClasses { return p.cfg.Classes }

// Stats returns a snapshot of policy counters.
func (p *Napot) Stats() LadderStats {
	s := p.stats
	for k := 1; k < p.cfg.Classes.N(); k++ {
		s.Mapped[k] = p.mapped[k].Len()
	}
	return s
}

// MappedAt reports whether the class-k region is promoted (k >= 1).
func (p *Napot) MappedAt(k int, region addr.PN) bool {
	return p.mapped[k].Has(uint64(region))
}

// MappedCount returns how many regions are promoted at class k (k >= 1).
func (p *Napot) MappedCount(k int) int { return p.mapped[k].Len() }

// TopMappedClass implements MultiSize.
func (p *Napot) TopMappedClass(c addr.PN) int {
	for k := p.cfg.Classes.N() - 1; k >= 1; k-- {
		if p.mapped[k].Has(uint64(p.cfg.Classes.Up(c, 1, k))) {
			return k
		}
	}
	return 0
}

// Assign implements Assigner. A first touch of a base block bumps the
// population count of every enclosing region; each region that just
// became fully populated is promoted, and the event reports the topmost
// class promoted by this reference. Per-reference hot path: one set
// probe, plus counter updates only on first touches.
//
//paperlint:hot
func (p *Napot) Assign(va addr.VA) Result {
	p.stats.Refs++
	n := p.cfg.Classes.N()
	var res Result
	b := addr.Block(va)
	if p.touched.Add(uint64(b)) {
		for k := 1; k < n; k++ {
			r := p.cfg.Classes.Page(va, k)
			if int(p.full[k].Add(uint64(r), 1)) != p.cfg.Classes.BaseFanout(k) {
				continue
			}
			if p.mapped[k].Has(uint64(r)) ||
				(p.cfg.Deny != nil && p.cfg.Deny(k, r)) {
				continue
			}
			p.mapped[k].Add(uint64(r))
			p.stats.Promotions[k]++
			res.Event, res.Chunk, res.Level = EventPromote, r, uint8(k)
		}
	}
	for k := n - 1; k >= 1; k-- {
		r := p.cfg.Classes.Page(va, k)
		if p.mapped[k].Has(uint64(r)) {
			p.stats.RefsByClass[k]++
			res.Page = Page{Number: r, Shift: p.cfg.Classes.Shift(k)}
			return res
		}
	}
	p.stats.RefsByClass[0]++
	res.Page = Page{Number: b, Shift: addr.BlockShift}
	return res
}

// Name implements Assigner, e.g. "4KB/32KB/256KB napot".
func (p *Napot) Name() string { return p.cfg.Classes.String() + " napot" }

var _ MultiSize = (*Napot)(nil)

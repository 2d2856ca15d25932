package policy

import (
	"fmt"
	"math"

	"twopage/internal/addr"
	"twopage/internal/htab"
	"twopage/internal/window"
)

// MultiSize is implemented by every policy that assigns pages from a
// multi-size hierarchy. The simulator uses it to size the miss-penalty
// model and to know which classes a promotion/demotion event spans;
// the sampled working-set calculator (internal/wss) uses it to size
// each active chunk.
type MultiSize interface {
	Assigner
	// SizeClasses returns the policy's page-size hierarchy, smallest
	// class first.
	SizeClasses() addr.SizeClasses
	// TopMappedClass returns the largest class whose current mapping
	// covers the class-1 chunk c, or 0 if references in c resolve to
	// base blocks.
	TopMappedClass(c addr.PN) int
}

// LadderConfig parameterizes the N-level promotion ladder, the
// generalization of the paper's Section 3.4 policy to hierarchies like
// Trident's 4K/2M/1G: block→chunk→superchunk, each level promoted when
// enough of its children are live in the reference window.
type LadderConfig struct {
	// T is the reference-window length used to judge block activity,
	// exactly as in TwoSizeConfig. Must be > 0.
	T int
	// Classes is the page-size hierarchy. Class 0 must be the 4KB block
	// (the window tracker's unit); 2 to addr.MaxSizeClasses levels, all
	// shifts at most window.MaxChunkShift (the window's chunk-counting
	// bound).
	Classes addr.SizeClasses
	// Thresholds[k-1] is the support needed to promote a class-k region:
	// for k == 1, active blocks in the window (the paper's rule); for
	// k >= 2, currently mapped class-(k-1) children. Each must be in
	// [1, Classes.Fanout(k)].
	Thresholds []int
	// Demote, when true, demotes a mapped region back when its support
	// falls below the threshold (checked on access, top level first).
	Demote bool
}

// DefaultLadderConfig returns the half-or-more rule at every level for
// the given hierarchy, with demotion on — the natural extension of the
// paper's parameters.
func DefaultLadderConfig(T int, classes addr.SizeClasses) LadderConfig {
	thr := make([]int, classes.N()-1)
	for k := 1; k < classes.N(); k++ {
		thr[k-1] = classes.Fanout(k) / 2
	}
	return LadderConfig{T: T, Classes: classes, Thresholds: thr, Demote: true}
}

// LadderStats counts N-level policy activity, indexed by size class.
type LadderStats struct {
	Refs        uint64                      // references observed
	RefsByClass [addr.MaxSizeClasses]uint64 // references landing on each class
	Promotions  [addr.MaxSizeClasses]uint64 // promotions *into* class k (k >= 1)
	Demotions   [addr.MaxSizeClasses]uint64 // demotions *out of* class k (k >= 1)
	//paperlint:gauge regions currently mapped at class k; last-writer on Merge, kept on Sub
	Mapped [addr.MaxSizeClasses]int
}

// Sub removes a previously recorded baseline from the flow counters —
// Refs, RefsByClass, Promotions, Demotions — leaving the activity that
// happened after the baseline snapshot. Mapped is a gauge (current
// state, not flow) and is kept, not subtracted: after a warm-up preroll
// the mapped-region count is exactly the state the warm-up built.
func (s *LadderStats) Sub(o LadderStats) {
	s.Refs -= o.Refs
	for k := range s.RefsByClass {
		s.RefsByClass[k] -= o.RefsByClass[k]
		s.Promotions[k] -= o.Promotions[k]
		s.Demotions[k] -= o.Demotions[k]
	}
}

// Merge folds another shard's flow counters into s. Mapped is a gauge
// and follows last-writer semantics: the caller overwrites it with the
// final shard's value, so Merge leaves it alone.
func (s *LadderStats) Merge(o LadderStats) {
	s.Refs += o.Refs
	for k := range s.RefsByClass {
		s.RefsByClass[k] += o.RefsByClass[k]
		s.Promotions[k] += o.Promotions[k]
		s.Demotions[k] += o.Demotions[k]
	}
}

// Ladder is the N-level dynamic page-size assignment policy. With two
// classes it reproduces TwoSize decision-for-decision (the two-size
// constructor is a shim over it; internal/tworef pins the equivalence).
//
// One reference triggers at most one transition, evaluated top level
// first: the largest class wins ties, mirroring how the two-size policy
// resolves promotion and demotion in a single Assign step. Support for
// level 1 is the window's active-block count; support for level k >= 2
// is how many class-(k-1) children are currently mapped, so promotion
// pressure propagates up the ladder one level per reference.
type Ladder struct {
	cfg    LadderConfig
	shift  [addr.MaxSizeClasses]uint // cfg.Classes.Shift(k), read per reference
	win    *window.Tracker
	mapped [addr.MaxSizeClasses]*htab.Set     // k >= 1: regions mapped at class k
	kids   [addr.MaxSizeClasses]*htab.Counter // k >= 2: region -> mapped class-(k-1) children
	stats  LadderStats
}

// NewLadder returns the N-level policy for the given configuration. It
// panics on a configuration Validate rejects; callers building one from
// outside input validate it first.
func NewLadder(cfg LadderConfig) *Ladder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Classes.N()
	l := &Ladder{
		cfg: cfg,
		win: window.NewWithChunkShift(cfg.T, cfg.Classes.Shift(1)),
	}
	for k := 0; k < n; k++ {
		l.shift[k] = cfg.Classes.Shift(k)
	}
	for k := 1; k < n; k++ {
		l.mapped[k] = htab.NewSet(1 << 8)
		if k >= 2 {
			l.kids[k] = htab.NewCounter(1 << 8)
		}
	}
	return l
}

// Window exposes the policy's sliding-window tracker so working-set
// calculators can observe the same window without a second tracker.
// Hooks must be registered before the first Assign.
func (l *Ladder) Window() *window.Tracker { return l.win }

// SizeClasses implements MultiSize.
func (l *Ladder) SizeClasses() addr.SizeClasses { return l.cfg.Classes }

// Stats returns a snapshot of policy counters.
func (l *Ladder) Stats() LadderStats {
	s := l.stats
	for k := 1; k < l.cfg.Classes.N(); k++ {
		s.Mapped[k] = l.mapped[k].Len()
	}
	return s
}

// MappedAt reports whether the class-k region is currently mapped at
// class k (k >= 1).
func (l *Ladder) MappedAt(k int, region addr.PN) bool {
	return l.mapped[k].Has(uint64(region))
}

// TopMappedClass implements MultiSize.
func (l *Ladder) TopMappedClass(c addr.PN) int {
	for k := l.cfg.Classes.N() - 1; k >= 1; k-- {
		if l.mapped[k].Has(uint64(l.cfg.Classes.Up(c, 1, k))) {
			return k
		}
	}
	return 0
}

// promote maps region r at class k and propagates the child count up.
func (l *Ladder) promote(k int, r addr.PN) {
	l.mapped[k].Add(uint64(r))
	l.stats.Promotions[k]++
	if k+1 < l.cfg.Classes.N() {
		l.kids[k+1].Add(uint64(l.cfg.Classes.Up(r, k, k+1)), 1)
	}
}

// demote unmaps region r at class k and propagates the child count up.
func (l *Ladder) demote(k int, r addr.PN) {
	l.mapped[k].Remove(uint64(r))
	l.stats.Demotions[k]++
	if k+1 < l.cfg.Classes.N() {
		l.kids[k+1].Add(uint64(l.cfg.Classes.Up(r, k, k+1)), -1)
	}
}

// Assign implements Assigner: record the reference in the window, apply
// at most one promotion/demotion (top level first), and resolve the
// reference to the largest covering mapped class. Per-reference hot
// path: one window step, whose return value is class 1's support, plus
// a few flat-table probes.
//
// Each class's mapped state is probed once. The transition loop probes
// every level from the top down to the one where a transition fires, or
// all of them. A transition sets its own level's new state. Only
// promote and demote change mapped state, and only at their own level.
// So the resolution reuses the loop's probes and probes again only
// below a transition, which needs three or more classes.
//
//paperlint:hot
func (l *Ladder) Assign(va addr.VA) Result {
	l.stats.Refs++
	// The window's chunk is the class-1 region (NewLadder builds it so),
	// and Step returns its active-block count: class 1's support.
	chunkActive := l.win.StepVA(va)
	var res Result
	// top is the largest class whose region is mapped (0: the base
	// block) and topR that region.
	top, topR := 0, addr.Block(va)
	k := l.cfg.Classes.N() - 1
	for ; k >= 1; k-- {
		r := addr.Page(va, l.shift[k])
		var support int
		if k == 1 {
			support = chunkActive
		} else {
			support = int(l.kids[k].Get(uint64(r)))
		}
		isMapped := l.mapped[k].Has(uint64(r))
		thr := l.cfg.Thresholds[k-1]
		ev := EventNone
		switch {
		case !isMapped && support >= thr:
			l.promote(k, r)
			ev, isMapped = EventPromote, true
		case isMapped && l.cfg.Demote && support < thr:
			l.demote(k, r)
			ev, isMapped = EventDemote, false
		}
		if isMapped && top == 0 {
			top, topR = k, r
		}
		if ev != EventNone {
			res.Event, res.Chunk, res.Level = ev, r, uint8(k)
			break
		}
	}
	// Levels below a transition are still unprobed.
	for k--; top == 0 && k >= 1; k-- {
		if r := addr.Page(va, l.shift[k]); l.mapped[k].Has(uint64(r)) {
			top, topR = k, r
		}
	}
	l.stats.RefsByClass[top]++
	res.Page = Page{Number: topR, Shift: l.shift[top]}
	return res
}

// Name implements Assigner, e.g. "4KB/32KB/256KB ladder".
func (l *Ladder) Name() string {
	return l.cfg.Classes.String() + " ladder"
}

var _ MultiSize = (*Ladder)(nil)

// Validate reports the first field out of range: T must be positive
// and fit the window's uint32 count; Classes must hold 2 or more sizes,
// the 4KB block first and none above window.MaxChunkShift; and
// Thresholds must hold one entry per class above the base, each in
// [1, Classes.Fanout(k)].
func (c LadderConfig) Validate() error {
	if c.T <= 0 || uint64(c.T) > math.MaxUint32 {
		return fmt.Errorf("policy: LadderConfig.T %d out of range [1,%d]", c.T, uint32(math.MaxUint32))
	}
	n := c.Classes.N()
	switch {
	case n < 2:
		return fmt.Errorf("policy: LadderConfig.Classes has %d size classes, need at least two", n)
	case c.Classes.Shift(0) != addr.BlockShift:
		return fmt.Errorf("policy: LadderConfig.Classes base shift %d, want the 4KB block (%d)",
			c.Classes.Shift(0), addr.BlockShift)
	case c.Classes.TopShift() > window.MaxChunkShift:
		return fmt.Errorf("policy: LadderConfig.Classes top shift %d out of range (%d,%d]",
			c.Classes.TopShift(), addr.BlockShift, window.MaxChunkShift)
	case len(c.Thresholds) != n-1:
		return fmt.Errorf("policy: LadderConfig.Thresholds has %d entries, want %d for %d classes",
			len(c.Thresholds), n-1, n)
	}
	for k := 1; k < n; k++ {
		if thr, fan := c.Thresholds[k-1], c.Classes.Fanout(k); thr < 1 || thr > fan {
			return fmt.Errorf("policy: LadderConfig.Thresholds[%d] %d out of range [1,%d]", k-1, thr, fan)
		}
	}
	return nil
}

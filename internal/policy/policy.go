// Package policy implements page-size assignment: deciding, per
// reference, whether the referenced address lives on a small (4KB) or a
// large (32KB) page.
//
// The paper has no real operating system to consult, so it assigns page
// sizes dynamically during simulation (Section 3.4): the address space is
// treated as 32KB chunks of eight 4KB blocks; a chunk is mapped as one
// large page when at least half of its blocks were referenced within the
// last T references, and as small pages otherwise. This guarantees the
// working set at most doubles (promoting requires ≥16KB of the 32KB to
// be live).
//
// Every policy implements the Assigner interface consumed by the TLB
// simulator and the working-set calculators:
//
//   - Single maps every reference on one fixed page size, the baseline.
//   - TwoSize is the paper's windowed 4KB/32KB policy described above.
//   - Ladder generalizes it to N size classes, promoting and demoting
//     each class on its own windowed threshold.
//   - Napot promotes a region once enough of its blocks have ever been
//     touched and never demotes, so it needs no window.
//   - Region maps declared 32KB chunks large, a static placement hint.
package policy

import (
	"fmt"
	"math"

	"twopage/internal/addr"
	"twopage/internal/window"
)

// Page identifies the translation unit that a reference falls on: a page
// number together with the page's shift (log2 size). Two pages are the
// same TLB entry iff both fields match.
type Page struct {
	Number addr.PN // page number (va >> Shift)
	Shift  uint    // log2 of the page size in bytes
}

// Size returns the page size in bytes.
func (p Page) Size() addr.PageSize { return addr.PageSize(1) << p.Shift }

// Base returns the first virtual address of the page.
func (p Page) Base() addr.VA { return addr.VA(uint64(p.Number) << p.Shift) }

// String formats the page for diagnostics.
func (p Page) String() string {
	return fmt.Sprintf("%s@%#x", p.Size(), uint64(p.Base()))
}

// Event reports a page-size transition triggered by observing a
// reference. The TLB simulator uses it to invalidate stale entries, and
// the miss-penalty model charges promotion costs through the two-page
// miss penalty (Section 3.4 of the paper folds promotion costs into the
// 25% penalty increase).
type Event uint8

// Event values.
const (
	EventNone    Event = iota // no transition
	EventPromote              // chunk switched from eight 4KB pages to one 32KB page
	EventDemote               // chunk switched from one 32KB page to eight 4KB pages
)

// Result is the outcome of assigning one reference.
//
// Every reference returns one, so its layout is part of the hot path:
// at 32 bytes and four fields the compiler keeps it in registers across
// Assign's return (DESIGN.md §8). TestResultFitsInRegisters pins that.
type Result struct {
	Page  Page    // the page the reference falls on, after any transition
	Chunk addr.PN // region affected by the transition, numbered at class Level (valid when Event != EventNone)
	Event Event   // transition triggered by this reference, if any
	// Level is the size class a promotion enters or a demotion leaves;
	// always 1 for two-size policies, 1..N-1 for the N-level ladder
	// (below addr.MaxSizeClasses, so a byte holds it).
	Level uint8
}

// Assigner maps each reference to its page and carries out any dynamic
// page-size transitions.
type Assigner interface {
	// Assign observes one reference and returns its page, which is
	// always the page of that size holding va:
	// Assign(va).Page.Number == addr.Page(va, Assign(va).Page.Shift).
	// A staged core pass hands the page on as its shift alone and
	// rebuilds the number from the address, so a policy that broke
	// this would be mistranslated there.
	Assign(va addr.VA) Result
	// Name identifies the policy in reports, e.g. "4KB" or "4KB/32KB".
	Name() string
}

// Single is the trivial policy: every address lives on a page of one
// fixed size. It is the baseline for every single-page-size experiment.
type Single struct {
	shift uint
	name  string
}

// NewSingle returns the single-page-size policy for the given size.
func NewSingle(size addr.PageSize) *Single {
	if !size.Valid() {
		panic(fmt.Sprintf("policy: invalid page size %d", size))
	}
	return &Single{shift: size.Shift(), name: size.String()}
}

// Assign implements Assigner.
func (s *Single) Assign(va addr.VA) Result {
	return Result{Page: Page{Number: addr.Page(va, s.shift), Shift: s.shift}}
}

// Name implements Assigner.
func (s *Single) Name() string { return s.name }

// Shift returns the policy's page shift.
func (s *Single) Shift() uint { return s.shift }

// TwoSizeConfig parameterizes the dynamic two-page-size policy.
type TwoSizeConfig struct {
	// T is the reference-window length used to judge block activity.
	// The paper uses the same T as the working-set parameter (10M for
	// full-size traces). Must be > 0.
	T int
	// Threshold is the number of active blocks (out of blocks-per-chunk)
	// at or above which a chunk is promoted to a large page. The paper
	// uses half ("whether half or more of the blocks in a chunk have
	// been accessed"): 4 of 8 for 32KB chunks. Must be in
	// [1, blocks-per-chunk].
	Threshold int
	// Demote, when true, demotes a large chunk back to small pages when
	// its active-block count falls below Threshold (checked on access to
	// the chunk). The paper assigns sizes "dynamically during the
	// simulation, looking at the last T references", which we read as
	// allowing both directions; set false for promote-only ablations.
	Demote bool
	// LargeShift is the large page's log2 size. Zero defaults to 32KB
	// (the paper's headline combination); 14 and 16 give the 4KB/16KB
	// and 4KB/64KB combinations the authors also measured but could not
	// print (Section 3.2).
	LargeShift uint
}

// BlocksPerChunk returns how many 4KB blocks one large page spans under
// this configuration.
func (c TwoSizeConfig) BlocksPerChunk() int {
	ls := c.LargeShift
	if ls == 0 {
		ls = addr.ChunkShift
	}
	return 1 << (ls - addr.BlockShift)
}

// Validate reports the first field out of range: T must be positive
// and fit the window's uint32 count, LargeShift (zero means 32KB) must
// lie in (BlockShift, window.MaxChunkShift], and Threshold in
// [1, BlocksPerChunk].
func (c TwoSizeConfig) Validate() error {
	if c.T <= 0 || uint64(c.T) > math.MaxUint32 {
		return fmt.Errorf("policy: TwoSizeConfig.T %d out of range [1,%d]", c.T, uint32(math.MaxUint32))
	}
	if ls := c.LargeShift; ls != 0 && (ls <= addr.BlockShift || ls > window.MaxChunkShift) {
		return fmt.Errorf("policy: TwoSizeConfig.LargeShift %d out of range (%d,%d]",
			ls, addr.BlockShift, window.MaxChunkShift)
	}
	if bpc := c.BlocksPerChunk(); c.Threshold < 1 || c.Threshold > bpc {
		return fmt.Errorf("policy: TwoSizeConfig.Threshold %d out of range [1,%d]", c.Threshold, bpc)
	}
	return nil
}

// DefaultTwoSizeConfig returns the paper's parameters for a given window:
// 4KB/32KB with the half-or-more promotion threshold.
func DefaultTwoSizeConfig(T int) TwoSizeConfig {
	return TwoSizeConfig{T: T, Threshold: addr.BlocksPerChunk / 2, Demote: true,
		LargeShift: addr.ChunkShift}
}

// TwoSizeStats counts policy activity.
type TwoSizeStats struct {
	Refs       uint64 // references observed
	LargeRefs  uint64 // references that landed on large pages
	SmallRefs  uint64 // references that landed on small pages
	Promotions uint64 // small→large transitions
	Demotions  uint64 // large→small transitions
	//paperlint:gauge chunks currently mapped large; last-writer on Merge, kept on Sub
	LargeChunks int
}

// Sub removes a previously recorded baseline from the flow counters,
// leaving the activity after the snapshot. LargeChunks is a gauge and
// is kept (see LadderStats.Sub).
func (s *TwoSizeStats) Sub(o TwoSizeStats) {
	s.Refs -= o.Refs
	s.LargeRefs -= o.LargeRefs
	s.SmallRefs -= o.SmallRefs
	s.Promotions -= o.Promotions
	s.Demotions -= o.Demotions
}

// Merge folds another shard's flow counters into s. LargeChunks is a
// gauge with last-writer semantics; the caller sets it from the final
// shard.
func (s *TwoSizeStats) Merge(o TwoSizeStats) {
	s.Refs += o.Refs
	s.LargeRefs += o.LargeRefs
	s.SmallRefs += o.SmallRefs
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
}

// TwoSize is the paper's dynamic page-size assignment policy
// (Section 3.4), kept as the two-class constructor over the N-level
// Ladder core — its decisions are pinned against the pre-generalization
// implementation by internal/tworef's differential tests. It owns a
// sliding-window tracker; the working-set calculator for the two-page
// scheme shares the same tracker via Window.
type TwoSize struct {
	ladder *Ladder
}

// NewTwoSize returns the dynamic policy for the given configuration.
// It panics on a configuration Validate rejects; callers building one
// from outside input validate it first.
func NewTwoSize(cfg TwoSizeConfig) *TwoSize {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.LargeShift == 0 {
		cfg.LargeShift = addr.ChunkShift
	}
	return &TwoSize{ladder: NewLadder(LadderConfig{
		T:          cfg.T,
		Classes:    addr.MustShiftClasses(addr.BlockShift, cfg.LargeShift),
		Thresholds: []int{cfg.Threshold},
		Demote:     cfg.Demote,
	})}
}

// Window exposes the policy's sliding-window tracker so that other
// consumers (the two-page working-set calculator) can observe the same
// window without a second tracker. Hooks must be registered before the
// first Assign.
func (p *TwoSize) Window() *window.Tracker { return p.ladder.Window() }

// SizeClasses implements MultiSize.
func (p *TwoSize) SizeClasses() addr.SizeClasses { return p.ladder.SizeClasses() }

// Stats returns a snapshot of policy counters.
func (p *TwoSize) Stats() TwoSizeStats {
	ls := p.ladder.Stats()
	return TwoSizeStats{
		Refs:        ls.Refs,
		LargeRefs:   ls.RefsByClass[1],
		SmallRefs:   ls.RefsByClass[0],
		Promotions:  ls.Promotions[1],
		Demotions:   ls.Demotions[1],
		LargeChunks: ls.Mapped[1],
	}
}

// IsLarge reports whether chunk c is currently mapped as a large page.
func (p *TwoSize) IsLarge(c addr.PN) bool { return p.ladder.MappedAt(1, c) }

// TopMappedClass implements MultiSize.
func (p *TwoSize) TopMappedClass(c addr.PN) int { return p.ladder.TopMappedClass(c) }

// Assign implements Assigner: it records the reference in the window,
// applies the promotion/demotion rule to the referenced chunk, and
// returns the page the reference falls on under the resulting mapping.
// Per-reference hot path: one delegated ladder step.
//
//paperlint:hot
func (p *TwoSize) Assign(va addr.VA) Result { return p.ladder.Assign(va) }

// Name implements Assigner.
func (p *TwoSize) Name() string {
	return "4KB/" + p.SizeClasses().Size(1).String()
}

package addr

import (
	"fmt"
	"strings"
)

// Larger page shifts used by the N-size generalization (Trident-style
// 4KB/2MB/1GB hierarchies and the intermediate NAPOT sizes between
// them). The paper's own pair is 4KB/32KB; these constants let the
// N-size experiments and tests speak about modern hierarchies too.
const (
	// Shift128K is log2(128KB).
	Shift128K = 17
	// Shift256K is log2(256KB), the third level of the simulator's
	// 4KB/32KB/256KB ladder experiments (each level ×8, like the
	// paper's block→chunk step).
	Shift256K = 18
	// Shift2M is log2(2MB), the x86-64/RISC-V megapage shift.
	Shift2M = 21
	// Shift1G is log2(1GB), the x86-64/RISC-V gigapage shift.
	Shift1G = 30
)

// Page sizes matching the shifts above.
const (
	Size128K PageSize = 1 << Shift128K
	Size256K PageSize = 1 << Shift256K
	Size2M   PageSize = 1 << Shift2M
	Size1G   PageSize = 1 << Shift1G
)

// MaxSizeClasses bounds how many page sizes one configuration may
// support. Per-class counter arrays throughout the tree (tlb.Stats,
// core.MemoryStats, the obs size<k> keys) are sized by it, so raising it is a
// schema change, not just a constant bump. Four levels covers every
// hierarchy the related systems use (4K/2M/1G plus one NAPOT step).
const MaxSizeClasses = 4

// SizeClasses is a validated, strictly ascending list of page shifts —
// the size hierarchy a TLB, policy, or page table is configured for.
// Class 0 is the base (smallest) page; higher classes are larger.
// The zero value means "no classes" (N() == 0); construct real values
// with NewSizeClasses/MustSizeClasses (by size) or NewShiftClasses
// (by shift). SizeClasses is comparable: two values are == iff they
// list the same shifts.
type SizeClasses struct {
	n      int
	shifts [MaxSizeClasses]uint8
}

// NewSizeClasses builds a hierarchy from page sizes, which must be
// valid powers of two in strictly ascending order, at most
// MaxSizeClasses of them. This is the constructor the paperlint powtwo
// analyzer checks at call sites with constant arguments.
func NewSizeClasses(sizes ...PageSize) (SizeClasses, error) {
	shifts := make([]uint, len(sizes))
	for i, s := range sizes {
		if !s.Valid() {
			return SizeClasses{}, fmt.Errorf("addr: size class %d: %d is not a power of two", i, uint64(s))
		}
		shifts[i] = s.Shift()
	}
	return NewShiftClasses(shifts...)
}

// MustSizeClasses is NewSizeClasses, panicking on error; for tables of
// known-good hierarchies.
func MustSizeClasses(sizes ...PageSize) SizeClasses {
	c, err := NewSizeClasses(sizes...)
	if err != nil {
		panic(err)
	}
	return c
}

// NewShiftClasses builds a hierarchy from page shifts (log2 sizes),
// which must be strictly ascending and within (0, 63).
func NewShiftClasses(shifts ...uint) (SizeClasses, error) {
	if len(shifts) == 0 {
		return SizeClasses{}, fmt.Errorf("addr: need at least one size class")
	}
	if len(shifts) > MaxSizeClasses {
		return SizeClasses{}, fmt.Errorf("addr: %d size classes exceed the maximum %d",
			len(shifts), MaxSizeClasses)
	}
	var c SizeClasses
	for i, s := range shifts {
		if s == 0 || s >= 63 {
			return SizeClasses{}, fmt.Errorf("addr: size class %d: shift %d out of range (0,63)", i, s)
		}
		if i > 0 && s <= uint(c.shifts[i-1]) {
			return SizeClasses{}, fmt.Errorf("addr: size classes must be strictly ascending: shift %d (class %d) after %d",
				s, i, c.shifts[i-1])
		}
		c.shifts[i] = uint8(s)
	}
	c.n = len(shifts)
	return c, nil
}

// MustShiftClasses is NewShiftClasses, panicking on error.
func MustShiftClasses(shifts ...uint) SizeClasses {
	c, err := NewShiftClasses(shifts...)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of size classes (0 for the zero value).
func (c SizeClasses) N() int { return c.n }

// Shift returns class k's page shift. It panics for out-of-range k,
// like a slice index.
func (c SizeClasses) Shift(k int) uint {
	if uint(k) >= uint(c.n) {
		panic(classRangeError{k, c.n})
	}
	return uint(c.shifts[k])
}

// classRangeError is Shift's panic value. Formatting the message in its
// Error method rather than in Shift keeps Shift, and every accessor
// built on it, within the inliner's budget; a panic prints the same
// text either way.
type classRangeError struct{ k, n int }

func (e classRangeError) Error() string {
	return fmt.Sprintf("addr: size class %d out of range [0,%d)", e.k, e.n)
}

// TopShift returns the largest class's shift.
func (c SizeClasses) TopShift() uint { return c.Shift(c.n - 1) }

// Size returns class k's page size in bytes.
func (c SizeClasses) Size(k int) PageSize { return PageSize(1) << c.Shift(k) }

// Shifts returns the shifts as a fresh slice, ascending.
func (c SizeClasses) Shifts() []uint {
	out := make([]uint, c.n)
	for i := range out {
		out[i] = uint(c.shifts[i])
	}
	return out
}

// ClassOf returns the largest class whose pages are no bigger than a
// page of the given shift — the class a page of that shift counts
// against. Shifts below class 0 clamp to 0, preserving the legacy
// two-size rule "shift >= LargeShift ⇒ large, else small".
func (c SizeClasses) ClassOf(shift uint) int {
	k := c.n - 1
	for k > 0 && shift < uint(c.shifts[k]) {
		k--
	}
	return k
}

// Page returns va's page number at class k.
func (c SizeClasses) Page(va VA, k int) PN { return Page(va, c.Shift(k)) }

// Base returns the first address of va's class-k page.
func (c SizeClasses) Base(va VA, k int) VA { return Base(va, c.Shift(k)) }

// SpanPages returns how many class-k pages the byte range
// [start, start+length) touches.
func (c SizeClasses) SpanPages(start VA, length uint64, k int) uint64 {
	return SpanPages(start, length, c.Shift(k))
}

// Fanout returns how many class-(k-1) pages one class-k page spans.
// k must be at least 1.
func (c SizeClasses) Fanout(k int) int {
	if k < 1 {
		panic("addr: Fanout needs class >= 1")
	}
	return 1 << (c.Shift(k) - c.Shift(k-1))
}

// BaseFanout returns how many class-0 pages one class-k page spans.
func (c SizeClasses) BaseFanout(k int) int {
	return 1 << (c.Shift(k) - c.Shift(0))
}

// Up converts a class-from page number to the class-to page containing
// it. to must be >= from.
func (c SizeClasses) Up(p PN, from, to int) PN {
	return p >> (c.Shift(to) - c.Shift(from))
}

// FirstSub returns the first (lowest) class-to page of the class-from
// page p. to must be <= from.
func (c SizeClasses) FirstSub(p PN, from, to int) PN {
	return p << (c.Shift(from) - c.Shift(to))
}

// SubIndex returns the index of class-to page p within its class-from
// parent. to must be <= from.
func (c SizeClasses) SubIndex(p PN, from, to int) uint {
	return uint(p) & uint(1<<(c.Shift(from)-c.Shift(to))-1)
}

// String lists the sizes smallest-first, e.g. "4KB/32KB/256KB" — the
// same style the two-size policy names used ("4KB/32KB").
func (c SizeClasses) String() string {
	if c.n == 0 {
		return "(no size classes)"
	}
	var b strings.Builder
	for k := 0; k < c.n; k++ {
		if k > 0 {
			b.WriteByte('/')
		}
		b.WriteString(c.Size(k).String())
	}
	return b.String()
}

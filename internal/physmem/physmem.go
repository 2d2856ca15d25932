// Package physmem models the physical-memory substrate a two-page-size
// system needs: a binary buddy allocator over 4KB frames that can hand
// out aligned 32KB frames, with the external-fragmentation accounting
// the paper identifies as a new cost of multiple page sizes (Section 1:
// "External fragmentation is waste due to the page size being larger
// than a contiguous region of available memory").
package physmem

import (
	"fmt"
	"math/bits"

	"twopage/internal/addr"
)

// Orders: order 0 = one 4KB frame, order 3 = eight frames = one aligned
// 32KB large frame.
const (
	OrderSmall = 0
	OrderLarge = 3
	maxOrder   = OrderLarge
)

// Stats counts allocator activity.
type Stats struct {
	SmallAllocs uint64
	LargeAllocs uint64
	SmallFrees  uint64
	LargeFrees  uint64
	// FailedSmall counts small allocations refused for lack of any frame.
	FailedSmall uint64
	// FailedLarge counts large allocations refused outright.
	FailedLarge uint64
	// FailedLargeFragmented counts the subset of FailedLarge where >= 8
	// frames were free but no aligned contiguous run existed: pure
	// external fragmentation.
	FailedLargeFragmented uint64
	// Splits and Coalesces count buddy operations.
	Splits    uint64
	Coalesces uint64
	// PeakResident is the high-water mark of allocated 4KB frames over
	// the allocator's lifetime.
	PeakResident uint64
}

// Allocator is a binary buddy allocator over a fixed pool of 4KB
// frames. Free blocks are tracked in one bitmap per order (bit i of
// order o covers the aligned block with head i<<o), and allocation
// always takes the lowest free address. That makes the allocator fully
// deterministic — same request sequence, same frames, same stats —
// which the experiment layer's byte-identical-output contract depends
// on (a map-keyed free list would hand out frames in randomized
// iteration order).
type Allocator struct {
	frames    uint64
	free      [maxOrder + 1]bitset
	freeLen   [maxOrder + 1]int // set bits per order
	hint      [maxOrder + 1]int // lowest word that may hold a set bit
	allocated map[addr.PN]int   // block head -> order
	freeCnt   uint64            // free 4KB frames
	stats     Stats
}

// MaxSize bounds the memory an Allocator manages: 1TB of 4KB frames
// takes about 60MB of free bitmaps, and a size far beyond it would
// exhaust the simulating machine instead of failing.
const MaxSize addr.PageSize = 1 << 40

// CheckSize reports whether New accepts size: a positive multiple of
// the large frame size (32KB), at most MaxSize.
func CheckSize(size addr.PageSize) error {
	if size == 0 || uint64(size)%addr.ChunkSize != 0 {
		return fmt.Errorf("physmem: size %d is not a positive multiple of 32KB", size)
	}
	if size > MaxSize {
		return fmt.Errorf("physmem: size %d exceeds the %s maximum", size, MaxSize)
	}
	return nil
}

// New returns an allocator managing the given memory size (see
// CheckSize).
func New(size addr.PageSize) (*Allocator, error) {
	if err := CheckSize(size); err != nil {
		return nil, err
	}
	a := &Allocator{
		frames:    uint64(size) / addr.BlockSize,
		allocated: make(map[addr.PN]int),
	}
	for o := range a.free {
		a.free[o] = newBitset(a.frames >> o)
	}
	for f := addr.PN(0); uint64(f) < a.frames; f += 1 << OrderLarge {
		a.setFree(OrderLarge, f)
	}
	a.freeCnt = a.frames
	return a, nil
}

// bitset is a fixed-size bitmap.
type bitset []uint64

func newBitset(n uint64) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i uint64) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i uint64)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i uint64)    { b[i>>6] &^= 1 << (i & 63) }

// setFree marks the block with the given head free at order o.
func (a *Allocator) setFree(o int, head addr.PN) {
	i := uint64(head) >> o
	a.free[o].set(i)
	a.freeLen[o]++
	if w := int(i >> 6); w < a.hint[o] {
		a.hint[o] = w
	}
}

// clearFree unmarks a known-free block.
func (a *Allocator) clearFree(o int, head addr.PN) {
	a.free[o].clear(uint64(head) >> o)
	a.freeLen[o]--
}

// takeLowest removes and returns the lowest free head at order o. The
// per-order hint makes the word scan amortized O(1): it only moves
// forward past exhausted words and is pulled back when a lower block is
// freed.
func (a *Allocator) takeLowest(o int) (addr.PN, bool) {
	if a.freeLen[o] == 0 {
		return 0, false
	}
	w := a.hint[o]
	for a.free[o][w] == 0 {
		w++
	}
	a.hint[o] = w
	word := a.free[o][w]
	i := uint64(w)<<6 | uint64(bits.TrailingZeros64(word))
	a.free[o][w] = word & (word - 1)
	a.freeLen[o]--
	return addr.PN(i << o), true
}

// MustNew is New, panicking on error.
func MustNew(size addr.PageSize) *Allocator {
	a, err := New(size)
	if err != nil {
		panic(err)
	}
	return a
}

// FreeFrames returns the number of free 4KB frames.
func (a *Allocator) FreeFrames() uint64 { return a.freeCnt }

// TotalFrames returns the pool size in 4KB frames.
func (a *Allocator) TotalFrames() uint64 { return a.frames }

// Stats returns a snapshot of the counters.
func (a *Allocator) Stats() Stats { return a.stats }

// allocOrder finds (splitting as needed) the lowest-addressed free
// block of the order.
func (a *Allocator) allocOrder(order int) (addr.PN, bool) {
	for o := order; o <= maxOrder; o++ {
		head, ok := a.takeLowest(o)
		if !ok {
			continue
		}
		// Split down to the requested order, freeing upper buddies.
		for cur := o; cur > order; cur-- {
			buddy := head + 1<<(cur-1)
			a.setFree(cur-1, buddy)
			a.stats.Splits++
		}
		return head, true
	}
	return 0, false
}

// AllocSmall allocates one 4KB frame.
func (a *Allocator) AllocSmall() (addr.PN, error) {
	head, ok := a.allocOrder(OrderSmall)
	if !ok {
		a.stats.FailedSmall++
		return 0, fmt.Errorf("physmem: out of memory")
	}
	a.allocated[head] = OrderSmall
	a.freeCnt--
	a.stats.SmallAllocs++
	a.notePeak()
	return head, nil
}

// notePeak updates the resident high-water mark after an allocation.
func (a *Allocator) notePeak() {
	if used := a.frames - a.freeCnt; used > a.stats.PeakResident {
		a.stats.PeakResident = used
	}
}

// AllocLarge allocates one aligned 32KB frame (eight contiguous 4KB
// frames). On failure it distinguishes exhaustion from external
// fragmentation in the stats.
func (a *Allocator) AllocLarge() (addr.PN, error) {
	head, ok := a.allocOrder(OrderLarge)
	if !ok {
		a.stats.FailedLarge++
		if a.freeCnt >= 1<<OrderLarge {
			a.stats.FailedLargeFragmented++
			return 0, fmt.Errorf("physmem: externally fragmented: %d frames free but no aligned 32KB run", a.freeCnt)
		}
		return 0, fmt.Errorf("physmem: out of memory")
	}
	a.allocated[head] = OrderLarge
	a.freeCnt -= 1 << OrderLarge
	a.stats.LargeAllocs++
	a.notePeak()
	return head, nil
}

// Free releases a previously allocated frame (of either size),
// coalescing buddies greedily.
func (a *Allocator) Free(head addr.PN) error {
	order, ok := a.allocated[head]
	if !ok {
		return fmt.Errorf("physmem: frame %#x is not allocated", uint64(head))
	}
	delete(a.allocated, head)
	a.freeCnt += 1 << order
	if order == OrderLarge {
		a.stats.LargeFrees++
	} else {
		a.stats.SmallFrees++
	}
	for order < maxOrder {
		buddy := head ^ (1 << order)
		if !a.free[order].get(uint64(buddy) >> order) {
			break
		}
		a.clearFree(order, buddy)
		if buddy < head {
			head = buddy
		}
		order++
		a.stats.Coalesces++
	}
	a.setFree(order, head)
	return nil
}

// LargeCapacity returns how many aligned 32KB allocations could succeed
// right now — a direct external-fragmentation probe.
func (a *Allocator) LargeCapacity() int {
	return a.freeLen[OrderLarge]
}

// FragmentationRatio returns 1 − (satisfiable large frames × 8) / free
// frames: 0 means free memory is perfectly coalesced, approaching 1
// means free memory is nearly useless for large pages.
func (a *Allocator) FragmentationRatio() float64 {
	if a.freeCnt == 0 {
		return 0
	}
	usable := uint64(a.LargeCapacity()) << OrderLarge
	return 1 - float64(usable)/float64(a.freeCnt)
}

// OrderOf returns the buddy order needed for a page size.
func OrderOf(size addr.PageSize) (int, error) {
	if !size.Valid() || size < addr.Size4K || size > addr.Size32K {
		return 0, fmt.Errorf("physmem: unsupported page size %v", size)
	}
	return bits.TrailingZeros64(uint64(size)) - addr.BlockShift, nil
}

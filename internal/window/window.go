// Package window implements an exact sliding-window reference tracker.
//
// The paper's page-size assignment policy (Section 3.4) and the working
// set model (Section 3.2, after Denning) are both defined over "the last
// T references": a 4KB block is *active* at time t if it was referenced
// at least once in the interval [t-T+1, t]. This package maintains that
// set exactly with a ring buffer of the last T references and, for
// every large-page chunk with an active block, the in-window reference
// counts of the chunk's blocks, in O(1) amortized work per reference.
//
// On top of block activity it maintains, incrementally:
//
//   - the number of distinct active blocks (the 4KB working-set size in
//     blocks);
//   - per large-page chunk (32KB by default, i.e. eight blocks), how
//     many of its blocks are active — exactly the quantity the
//     promotion policy thresholds on. The chunk size is configurable to
//     support the paper's 4KB/16KB and 4KB/64KB combinations.
//
// The state is a dense per-chunk arena. Each chunk with an active block
// owns a record: its chunk number, its active-block count and its
// blocks' reference counts. An htab.U64 maps a chunk to its record, and
// a record whose last block leaves is recycled through a free list. The
// ring holds each in-window reference's arena slot (record and block
// offset), so expiring the oldest reference is a direct decrement, and
// a reference probes the chunk index once, for itself.
//
// Consumers may register enter/leave hooks to maintain further derived
// state (e.g. the two-page-size working-set size in internal/wss).
package window

import (
	"fmt"
	"math"
	"slices"

	"twopage/internal/addr"
	"twopage/internal/htab"
)

// MaxChunkShift is the largest chunk shift a Tracker accepts (16MB
// chunks). A record holds one reference count per block of its chunk,
// 2^(shift-12) of them.
const MaxChunkShift = 24

// noRecord ends the free list.
const noRecord = ^uint32(0)

// record is one chunk's entry in the arena. Its blocks' reference
// counts live at counts[r<<bits:(r+1)<<bits] for record index r.
type record struct {
	chunk  addr.PN
	active uint32 // active blocks; 0 for a free record
	next   uint32 // next free record, while the record is free
}

// Tracker tracks which 4KB blocks were referenced in the last T
// references. The zero value is not usable; call New.
type Tracker struct {
	t          int
	chunkShift uint
	bits       uint   // chunkShift - addr.BlockShift
	offMask    uint32 // a block's offset within its chunk
	ring       []uint32
	pos        int
	filled     bool
	steps      uint64

	index   *htab.U64 // chunk -> index of its record
	recs    []record
	counts  []uint32 // per block: references of it inside the window
	free    uint32   // first free record, or noRecord
	maxRecs uint64   // the most records whose slot indices fit a uint32
	active  int

	chunks []uint64 // ActiveChunks' sorted-key scratch

	// OnBlockEnter, if non-nil, is called when a block becomes active
	// (was not referenced in the window, now is). The tracker's counts,
	// including ChunkActive, are already updated when it runs.
	OnBlockEnter func(b addr.PN)
	// OnBlockLeave, if non-nil, is called when a block becomes inactive
	// (its last reference in the window just expired); counts are
	// already updated, so ChunkActive reads 0 for a chunk whose last
	// active block this was.
	OnBlockLeave func(b addr.PN)
}

// New returns a Tracker with window length T references and the default
// 32KB chunk size. T must be > 0.
func New(T int) *Tracker { return NewWithChunkShift(T, addr.ChunkShift) }

// NewWithChunkShift returns a Tracker whose chunk grouping uses the
// given large-page shift (e.g. 14 for 16KB chunks, 16 for 64KB chunks).
// chunkShift must exceed the 4KB block shift and be at most
// MaxChunkShift; T must be positive and fit a uint32 count.
func NewWithChunkShift(T int, chunkShift uint) *Tracker {
	if T <= 0 {
		panic("window: T must be positive")
	}
	if uint64(T) > math.MaxUint32 {
		panic(fmt.Sprintf("window: T %d exceeds the uint32 reference count", T))
	}
	if chunkShift <= addr.BlockShift || chunkShift > MaxChunkShift {
		panic(fmt.Sprintf("window: chunk shift %d out of range (%d,%d]",
			chunkShift, addr.BlockShift, MaxChunkShift))
	}
	bits := chunkShift - addr.BlockShift
	return &Tracker{
		t:          T,
		chunkShift: chunkShift,
		bits:       bits,
		offMask:    1<<bits - 1,
		ring:       make([]uint32, T),
		index:      htab.NewU64(1 << 8),
		free:       noRecord,
		maxRecs:    1 << (32 - bits),
	}
}

// T returns the window length in references.
func (w *Tracker) T() int { return w.t }

// ChunkShift returns the large-page shift defining the chunk grouping.
func (w *Tracker) ChunkShift() uint { return w.chunkShift }

// BlocksPerChunk returns how many 4KB blocks one chunk spans.
func (w *Tracker) BlocksPerChunk() int { return 1 << w.bits }

// ChunkOf returns the chunk number containing block b under this
// tracker's chunk grouping.
func (w *Tracker) ChunkOf(b addr.PN) addr.PN { return b >> w.bits }

// Steps returns how many references have been observed.
func (w *Tracker) Steps() uint64 { return w.steps }

// ActiveBlocks returns the number of distinct 4KB blocks referenced in
// the current window — the 4KB-page working-set size in pages.
func (w *Tracker) ActiveBlocks() int { return w.active }

// BlockActive reports whether block b was referenced in the window.
func (w *Tracker) BlockActive(b addr.PN) bool {
	r, ok := w.index.Get(uint64(w.ChunkOf(b)))
	return ok && w.counts[uint32(r)<<w.bits|uint32(b)&w.offMask] > 0
}

// ChunkActive returns how many of chunk c's blocks are active.
func (w *Tracker) ChunkActive(c addr.PN) int {
	r, ok := w.index.Get(uint64(c))
	if !ok {
		return 0
	}
	return int(w.recs[r].active)
}

// Step observes one reference to 4KB block b, expiring the reference
// that falls out of the window (if the window is full), and returns
// how many of b's chunk's blocks are active now, b included. This is
// the per-reference hot path shared by the policy and the two-size
// working-set calculator: one chunk-index probe for b, and direct
// arena indexing for the expired reference. It allocates only while
// the arena and the chunk index grow to the window's peak chunk count.
//
//paperlint:hot
func (w *Tracker) Step(b addr.PN) int {
	w.steps++
	if w.filled {
		s := w.ring[w.pos]
		w.counts[s]--
		if w.counts[s] == 0 {
			w.leave(s)
		}
	}
	c := w.ChunkOf(b)
	r64, ok := w.index.Get(uint64(c))
	r := uint32(r64)
	if !ok {
		r = w.alloc(c)
	}
	s := r<<w.bits | uint32(b)&w.offMask
	w.ring[w.pos] = s
	w.pos++
	if w.pos == w.t {
		w.pos = 0
		w.filled = true
	}
	w.counts[s]++
	if w.counts[s] == 1 {
		w.active++
		w.recs[r].active++
		if w.OnBlockEnter != nil {
			w.OnBlockEnter(b)
		}
	}
	return int(w.recs[r].active)
}

// StepVA observes one reference by virtual address and returns its
// chunk's active-block count, as Step does.
func (w *Tracker) StepVA(va addr.VA) int { return w.Step(addr.Block(va)) }

// leave retires the block at arena slot s, whose last in-window
// reference just expired. A record left with no active block leaves
// the chunk index before OnBlockLeave runs, so the hook reads its
// chunk's count as 0, and joins the free list only after the hook.
func (w *Tracker) leave(s uint32) {
	w.active--
	r := s >> w.bits
	rec := &w.recs[r]
	rec.active--
	if rec.active == 0 {
		w.index.Delete(uint64(rec.chunk))
	}
	if w.OnBlockLeave != nil {
		w.OnBlockLeave(rec.chunk<<w.bits | addr.PN(s&w.offMask))
	}
	if rec.active == 0 {
		rec.next = w.free
		w.free = r
	}
}

// alloc binds chunk c to a free record, or to a new one at the end of
// the arena, and returns its index. A free record's counts are all
// zero: it was freed when its last block left.
func (w *Tracker) alloc(c addr.PN) uint32 {
	r := w.free
	if r != noRecord {
		w.free = w.recs[r].next
	} else {
		if uint64(len(w.recs)) == w.maxRecs {
			panic(fmt.Sprintf("window: %d active chunks at chunk shift %d overflow the uint32 arena slot",
				len(w.recs)+1, w.chunkShift))
		}
		r = uint32(len(w.recs))
		w.recs = append(w.recs, record{})                         //paperlint:ignore hotalloc arena growth runs once per record up to the window's peak active chunks; recycling reuses records, and the AllocsPerRun tests pin steady state at zero
		w.counts = append(w.counts, make([]uint32, 1<<w.bits)...) //paperlint:ignore hotalloc grows with the record arena above; the compiler appends the zeroed span without a temporary slice
	}
	w.recs[r] = record{chunk: c}
	w.index.Put(uint64(c), uint64(r))
	return r
}

// ActiveBlocksOf returns the indices of chunk c's blocks that are
// active, in ascending order. It is O(blocks-per-chunk) and intended for
// inspection and the promotion machinery, not the hot path.
func (w *Tracker) ActiveBlocksOf(c addr.PN) []uint {
	r, ok := w.index.Get(uint64(c))
	if !ok {
		return nil
	}
	var out []uint
	first := uint32(r) << w.bits
	for i, n := range w.counts[first : first+1<<w.bits] {
		if n > 0 {
			out = append(out, uint(i))
		}
	}
	return out
}

// ActiveChunks calls fn for every chunk with at least one active block,
// with its active-block count, in ascending chunk order. O(active
// chunks log active chunks), for periodic sampling rather than the
// per-reference path; it sorts into a scratch slice the tracker keeps,
// so it allocates only when the active-chunk count reaches a new peak.
// fn must not step the tracker or call ActiveChunks.
func (w *Tracker) ActiveChunks(fn func(c addr.PN, blocks int)) {
	w.chunks = w.index.AppendKeys(w.chunks[:0])
	slices.Sort(w.chunks)
	for _, c := range w.chunks {
		r, _ := w.index.Get(c)
		fn(addr.PN(c), int(w.recs[r].active))
	}
}

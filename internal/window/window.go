// Package window implements an exact sliding-window reference tracker.
//
// The paper's page-size assignment policy (Section 3.4) and the working
// set model (Section 3.2, after Denning) are both defined over "the last
// T references": a 4KB block is *active* at time t if it was referenced
// at least once in the interval [t-T+1, t]. A block leaves that set only
// when its latest reference turns T old, so this package maintains it
// exactly from each active block's latest reference step and one pending
// expiry per active block, in O(1) amortized work per reference and in
// memory that grows with the active blocks and with √T, not with T.
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
// owns a record: its chunk number and its active-block count. A block's
// arena slot, record<<(shift-12) | block offset, indexes its latest
// reference step (mod 2^32), its live bit and its wheel link. An
// htab.U64 maps a chunk to its record, and a record whose last block
// leaves is recycled through a free list. A reference probes the chunk
// index once, for itself.
//
// Expiries run on a two-level timing wheel. Each active block is filed
// at the step its latest reference known at filing turns T old. near
// holds the current span of 2^⌈½·log₂T⌉ steps, one slot per step: the
// block due at step d is the one referenced at step d−T, so at most one
// block falls due at any step. far holds a list for each later span,
// threaded through the blocks' links and cascaded into near when its
// span starts. A popped block referenced again since its filing is
// filed again at its latest reference plus T.
//
// Consumers may register enter/leave hooks to maintain further derived
// state (e.g. the two-page-size working-set size in internal/wss).
package window

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"twopage/internal/addr"
	"twopage/internal/htab"
)

// MaxChunkShift is the largest chunk shift a Tracker accepts (16MB
// chunks). A record spans 2^(shift-12) arena slots, one per block of
// its chunk.
const MaxChunkShift = 24

// none ends the free list and the far lists, and marks an empty near
// slot. The arena stops short of it, so it is no block's slot.
const none = ^uint32(0)

// record is one chunk's entry in the arena. Its blocks' slots are
// r<<bits | offset for record index r.
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
	steps      uint64

	index   *htab.U64 // chunk -> index of its record
	recs    []record
	free    uint32 // first free record, or none
	maxRecs uint64 // the most records whose slots all lie below none
	active  int

	// Per arena slot. last and live are all a reference touches; link
	// is touched only when a far list takes or gives up the block.
	last []uint32 // the block's latest reference step, mod 2^32
	live []uint64 // bit set: the block is active
	link []uint32 // the next block in its far list

	nearBits uint     // log2 of a span's steps
	near     []uint32 // the block due at each step of the current span, or none
	far      []uint32 // the first block due in each later span, or none
	farPos   uint32   // far's list for the current span

	chunks []uint64 // ActiveChunks' sorted-key scratch

	// OnBlockEnter, if non-nil, is called when a block becomes active
	// (was not referenced in the window, now is). The tracker's counts,
	// including ChunkActive, are already updated when it runs.
	OnBlockEnter func(b addr.PN)
	// OnBlockLeave, if non-nil, is called when a block becomes inactive
	// (its latest reference just turned T old); counts are already
	// updated, so ChunkActive reads 0 for a chunk whose last active
	// block this was.
	OnBlockLeave func(b addr.PN)
}

// New returns a Tracker with window length T references and the default
// 32KB chunk size. T must be > 0.
func New(T int) *Tracker { return NewWithChunkShift(T, addr.ChunkShift) }

// NewWithChunkShift returns a Tracker whose chunk grouping uses the
// given large-page shift (e.g. 14 for 16KB chunks, 16 for 64KB chunks).
// chunkShift must exceed the 4KB block shift and be at most
// MaxChunkShift; T must be positive and fit a uint32, the width of a
// block's age. The wheel is the only state sized by T: 2^⌈½·log₂T⌉ near
// slots and T>>⌈½·log₂T⌉ + 2 far lists, 512KB at T = 2^32−1.
func NewWithChunkShift(T int, chunkShift uint) *Tracker {
	if T <= 0 {
		panic("window: T must be positive")
	}
	if uint64(T) > math.MaxUint32 {
		panic(fmt.Sprintf("window: T %d exceeds the uint32 block age", T))
	}
	if chunkShift <= addr.BlockShift || chunkShift > MaxChunkShift {
		panic(fmt.Sprintf("window: chunk shift %d out of range (%d,%d]",
			chunkShift, addr.BlockShift, MaxChunkShift))
	}
	nearBits := uint(bits.Len64(uint64(T-1))+1) / 2 // ⌈½·⌈log₂T⌉⌉ = ⌈½·log₂T⌉
	bits := chunkShift - addr.BlockShift
	w := &Tracker{
		t:          T,
		chunkShift: chunkShift,
		bits:       bits,
		offMask:    1<<bits - 1,
		index:      htab.NewU64(1 << 8),
		free:       none,
		maxRecs:    math.MaxUint32 >> bits,
		nearBits:   nearBits,
		near:       make([]uint32, 1<<nearBits),
		far:        make([]uint32, T>>nearBits+2),
	}
	for i := range w.near {
		w.near[i] = none
	}
	for i := range w.far {
		w.far[i] = none
	}
	return w
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
	return ok && w.isLive(uint32(r)<<w.bits|uint32(b)&w.offMask)
}

// isLive reports whether the block at arena slot e is active.
func (w *Tracker) isLive(e uint32) bool { return w.live[e>>6]&(1<<(e&63)) != 0 }

// ChunkActive returns how many of chunk c's blocks are active.
func (w *Tracker) ChunkActive(c addr.PN) int {
	r, ok := w.index.Get(uint64(c))
	if !ok {
		return 0
	}
	return int(w.recs[r].active)
}

// Step observes one reference to 4KB block b, retiring the block whose
// latest reference turns T old (if any), and returns how many of b's
// chunk's blocks are active now, b included. This is the per-reference
// hot path shared by the policy and the two-size working-set
// calculator: one near slot, one chunk-index probe for b, and b's
// latest step and live bit. It allocates only while the arena and the
// chunk index grow to the window's peak chunk count.
//
//paperlint:hot
func (w *Tracker) Step(b addr.PN) int {
	now := w.steps
	w.steps++
	i := now & uint64(len(w.near)-1)
	if i == 0 {
		w.cascade(now)
	}
	if e := w.near[i]; e != none {
		w.near[i] = none
		w.expire(e, now)
	}
	c := w.ChunkOf(b)
	r64, ok := w.index.Get(uint64(c))
	r := uint32(r64)
	if !ok {
		r = w.alloc(c)
	}
	e := r<<w.bits | uint32(b)&w.offMask
	w.last[e] = uint32(now)
	if !w.isLive(e) {
		w.enter(e, b, now)
	}
	return int(w.recs[r].active)
}

// enter makes block b, at arena slot e, active at step now and files it
// at the step its reference turns T old.
func (w *Tracker) enter(e uint32, b addr.PN, now uint64) {
	w.live[e>>6] |= 1 << (e & 63)
	w.active++
	w.recs[e>>w.bits].active++
	w.file(e, now+uint64(w.t), now)
	if w.OnBlockEnter != nil {
		w.OnBlockEnter(b)
	}
}

// StepVA observes one reference by virtual address and returns its
// chunk's active-block count, as Step does.
func (w *Tracker) StepVA(va addr.VA) int { return w.Step(addr.Block(va)) }

// cascade starts the span beginning at step now: it takes the span's
// far list and files each of its blocks again by its latest reference,
// into near, or into a later far list if the block was referenced
// since it was filed.
func (w *Tracker) cascade(now uint64) {
	if w.farPos++; w.farPos == uint32(len(w.far)) {
		w.farPos = 0
	}
	e := w.far[w.farPos]
	w.far[w.farPos] = none
	for e != none {
		next := w.link[e]
		w.file(e, now+uint64(uint32(w.t)-(uint32(now)-w.last[e])), now)
		e = next
	}
}

// expire takes block e, which fell due at step now. It leaves if its
// latest reference is exactly T old, and is filed at that reference's
// step plus T otherwise.
func (w *Tracker) expire(e uint32, now uint64) {
	age := uint32(now) - w.last[e]
	if age == uint32(w.t) {
		w.leave(e)
		return
	}
	w.file(e, now+uint64(uint32(w.t)-age), now)
}

// file puts block e in the wheel at step due, when its latest reference
// turns T old. A filed block's age is at most T, so due lies in [now,
// now+T]: the block goes into near if due falls in the current span,
// else at the head of its span's far list. Spans from now's to due's
// number at most T>>nearBits + 2, one per far list. Callers compute
// due, which keeps file small enough to inline into all three.
func (w *Tracker) file(e uint32, due, now uint64) {
	ahead := uint32(due>>w.nearBits - now>>w.nearBits)
	if ahead == 0 {
		w.near[due&uint64(len(w.near)-1)] = e
		return
	}
	f := w.farPos + ahead
	if f >= uint32(len(w.far)) {
		f -= uint32(len(w.far))
	}
	w.link[e] = w.far[f]
	w.far[f] = e
}

// leave retires the block at arena slot e, whose latest reference just
// turned T old. A record left with no active block leaves the chunk
// index before OnBlockLeave runs, so the hook reads its chunk's count
// as 0, and joins the free list only after the hook.
func (w *Tracker) leave(e uint32) {
	w.live[e>>6] &^= 1 << (e & 63)
	w.active--
	r := e >> w.bits
	rec := &w.recs[r]
	rec.active--
	if rec.active == 0 {
		w.index.Delete(uint64(rec.chunk))
	}
	if w.OnBlockLeave != nil {
		w.OnBlockLeave(rec.chunk<<w.bits | addr.PN(e&w.offMask))
	}
	if rec.active == 0 {
		rec.next = w.free
		w.free = r
	}
}

// alloc binds chunk c to a free record, or to a new one at the end of
// the arena, and returns its index. A free record's blocks are all
// inactive: it was freed when its last block left.
func (w *Tracker) alloc(c addr.PN) uint32 {
	r := w.free
	if r != none {
		w.free = w.recs[r].next
	} else {
		if uint64(len(w.recs)) == w.maxRecs {
			panic(fmt.Sprintf("window: %d active chunks at chunk shift %d overflow the uint32 arena slot",
				len(w.recs)+1, w.chunkShift))
		}
		r = uint32(len(w.recs))
		w.recs = append(w.recs, record{})                     //paperlint:ignore hotalloc arena growth runs once per record up to the window's peak active chunks; recycling reuses records, and the AllocsPerRun tests pin steady state at zero
		w.last = append(w.last, make([]uint32, 1<<w.bits)...) //paperlint:ignore hotalloc grows with the record arena above; the compiler appends the zeroed span without a temporary slice
		w.link = append(w.link, make([]uint32, 1<<w.bits)...) //paperlint:ignore hotalloc grows with the record arena above, as last does
		if n := (len(w.last)+63)>>6 - len(w.live); n > 0 {
			w.live = append(w.live, make([]uint64, n)...) //paperlint:ignore hotalloc grows with the record arena above, as last does
		}
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
	for i := range uint32(1) << w.bits {
		if w.isLive(first + i) {
			out = append(out, uint(i))
		}
	}
	return out
}

// Chunks calls fn for every chunk with at least one active block, with
// its active-block count, in no particular order: a walk of the record
// arena, with no sort and no index probe, for sums that need no order.
// fn must not step the tracker.
func (w *Tracker) Chunks(fn func(c addr.PN, blocks int)) {
	for i := range w.recs {
		if r := &w.recs[i]; r.active > 0 {
			fn(r.chunk, int(r.active))
		}
	}
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

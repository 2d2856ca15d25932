package window

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"twopage/internal/addr"
)

// shadow is the two-counter sliding window the arena replaced: a ring of
// block numbers and map counts keyed by block and by chunk. It records
// each enter and leave with its chunk's count at that moment.
type shadow struct {
	t      int
	bits   uint // chunk shift - block shift
	ring   []addr.PN
	pos    int
	filled bool
	refs   map[addr.PN]int // block -> references of it inside the window
	chunks map[addr.PN]int // chunk -> active blocks in it
	events []hookEvent
}

// hookEvent is one enter or leave with what the tracker reported inside
// the hook: the block's chunk count and whether the block was active.
type hookEvent struct {
	enter       bool
	b           addr.PN
	chunkActive int
	blockActive bool
}

func newShadow(T int, chunkShift uint) *shadow {
	return &shadow{
		t:      T,
		bits:   chunkShift - addr.BlockShift,
		ring:   make([]addr.PN, T),
		refs:   map[addr.PN]int{},
		chunks: map[addr.PN]int{},
	}
}

// step observes b and returns b's chunk count and the block whose
// reference expired (ok false while the window fills).
func (m *shadow) step(b addr.PN) (chunkActive int, expired addr.PN, ok bool) {
	if m.filled {
		expired, ok = m.ring[m.pos], true
		if m.refs[expired]--; m.refs[expired] == 0 {
			delete(m.refs, expired)
			c := expired >> m.bits
			if m.chunks[c]--; m.chunks[c] == 0 {
				delete(m.chunks, c)
			}
			m.events = append(m.events, hookEvent{false, expired, m.chunks[c], false})
		}
	}
	m.ring[m.pos] = b
	if m.pos++; m.pos == m.t {
		m.pos, m.filled = 0, true
	}
	c := b >> m.bits
	if m.refs[b]++; m.refs[b] == 1 {
		m.chunks[c]++
		m.events = append(m.events, hookEvent{true, b, m.chunks[c], true})
	}
	return m.chunks[c], expired, ok
}

// activeBlocksOf mirrors Tracker.ActiveBlocksOf.
func (m *shadow) activeBlocksOf(c addr.PN) []uint {
	var out []uint
	for i := addr.PN(0); i < 1<<m.bits; i++ {
		if m.refs[c<<m.bits|i] > 0 {
			out = append(out, uint(i))
		}
	}
	return out
}

// diffStream draws a block: a hot set, one chunk's blocks, a wide
// range, block 0, or block numbers above 2^40, whose chunk numbers need
// more than 32 bits at every tested shift. The last case shares its low
// 32 chunk bits with the one-chunk case.
func diffStream(rng *rand.Rand, per int) addr.PN {
	switch rng.Intn(6) {
	case 0: // hot set
		return addr.PN(rng.Intn(4))
	case 1: // one chunk's blocks
		return addr.PN(5*per + rng.Intn(per))
	case 2: // wide range
		return addr.PN(rng.Intn(1 << 14))
	case 3:
		return 0
	case 4: // above 2^40, two chunks
		return 1<<40 + addr.PN(rng.Intn(2*per))
	default: // chunk 5 plus 2^32 chunks
		return addr.PN(5*per+rng.Intn(per)) + addr.PN(per)<<32
	}
}

// TestAgainstTwoCounterShadow drives the arena tracker and the
// two-counter shadow with the same streams and compares them after
// every step: ActiveBlocks, Step's return, ChunkActive of the stepped
// and the expired chunk, BlockActive, and the enter/leave sequence with
// the counts the hooks saw. At checkpoints it compares ActiveChunks and
// ActiveBlocksOf in full.
func TestAgainstTwoCounterShadow(t *testing.T) {
	for _, shift := range []uint{13, 14, 15, 16, 18} {
		for _, T := range []int{1, 2, 7, 4096} {
			t.Run(fmt.Sprintf("shift=%d/T=%d", shift, T), func(t *testing.T) {
				checkAgainstShadow(t, shift, T)
			})
		}
	}
}

func checkAgainstShadow(t *testing.T, shift uint, T int) {
	w := NewWithChunkShift(T, shift)
	m := newShadow(T, shift)
	var got []hookEvent
	w.OnBlockEnter = func(b addr.PN) {
		got = append(got, hookEvent{true, b, w.ChunkActive(w.ChunkOf(b)), w.BlockActive(b)})
	}
	w.OnBlockLeave = func(b addr.PN) {
		got = append(got, hookEvent{false, b, w.ChunkActive(w.ChunkOf(b)), w.BlockActive(b)})
	}
	rng := rand.New(rand.NewSource(int64(shift)*7919 + int64(T)))
	per := w.BlocksPerChunk()
	const steps = 12000
	for i := 0; i < steps; i++ {
		b := diffStream(rng, per)
		got, m.events = got[:0], m.events[:0]
		n := w.Step(b)
		want, expired, ok := m.step(b)
		if n != want {
			t.Fatalf("step %d: Step(%#x) = %d, want %d", i, b, n, want)
		}
		if a, want := w.ActiveBlocks(), len(m.refs); a != want {
			t.Fatalf("step %d: ActiveBlocks = %d, want %d", i, a, want)
		}
		if c := w.ChunkOf(b); w.ChunkActive(c) != m.chunks[c] {
			t.Fatalf("step %d: ChunkActive(%#x) = %d, want %d", i, c, w.ChunkActive(c), m.chunks[c])
		}
		if !w.BlockActive(b) {
			t.Fatalf("step %d: stepped block %#x inactive", i, b)
		}
		if ok {
			c := w.ChunkOf(expired)
			if w.ChunkActive(c) != m.chunks[c] {
				t.Fatalf("step %d: expired chunk %#x active %d, want %d", i, c, w.ChunkActive(c), m.chunks[c])
			}
			if w.BlockActive(expired) != (m.refs[expired] > 0) {
				t.Fatalf("step %d: BlockActive(expired %#x) = %v", i, expired, w.BlockActive(expired))
			}
		}
		if !slices.Equal(got, m.events) {
			t.Fatalf("step %d: hook events %+v, want %+v", i, got, m.events)
		}
		if i%1009 == 0 || i == steps-1 {
			compareInFull(t, i, w, m)
		}
	}
}

// compareInFull checks ActiveChunks against the shadow's chunk map and
// ActiveBlocksOf for every active chunk and one inactive one.
func compareInFull(t *testing.T, step int, w *Tracker, m *shadow) {
	t.Helper()
	var chunks []addr.PN
	w.ActiveChunks(func(c addr.PN, blocks int) {
		if blocks != m.chunks[c] {
			t.Fatalf("step %d: ActiveChunks gave chunk %#x %d blocks, want %d", step, c, blocks, m.chunks[c])
		}
		chunks = append(chunks, c)
	})
	want := make([]addr.PN, 0, len(m.chunks))
	for c := range m.chunks {
		want = append(want, c)
	}
	slices.Sort(want)
	if !slices.Equal(chunks, want) {
		t.Fatalf("step %d: ActiveChunks visited %#x, want %#x", step, chunks, want)
	}
	for _, c := range append(want, 1<<30) {
		if got, want := w.ActiveBlocksOf(c), m.activeBlocksOf(c); !slices.Equal(got, want) {
			t.Fatalf("step %d: ActiveBlocksOf(%#x) = %v, want %v", step, c, got, want)
		}
	}
}

package window

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twopage/internal/addr"
)

// refModel recomputes window state naively from the full history.
type refModel struct {
	T          int
	chunkShift uint
	hist       []addr.PN
}

func (m *refModel) step(b addr.PN) { m.hist = append(m.hist, b) }

func (m *refModel) window() []addr.PN {
	start := len(m.hist) - m.T
	if start < 0 {
		start = 0
	}
	return m.hist[start:]
}

func (m *refModel) activeBlocks() map[addr.PN]bool {
	set := map[addr.PN]bool{}
	for _, b := range m.window() {
		set[b] = true
	}
	return set
}

func (m *refModel) chunkActive(c addr.PN) int {
	n := 0
	for b := range m.activeBlocks() {
		if b>>(m.chunkShift-addr.BlockShift) == c {
			n++
		}
	}
	return n
}

func TestNewPanicsOnBadT(t *testing.T) {
	mustPanic(t, "New(0)", func() { New(0) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestChunkShiftBound pins the accepted chunk shifts to (12, 24], the
// bound NewLadder and NewTwoSize enforce: a record holds 2^(shift-12)
// counts, which must stay small and must not overflow BlocksPerChunk.
func TestChunkShiftBound(t *testing.T) {
	for _, shift := range []uint{0, addr.BlockShift, MaxChunkShift + 1, 75} {
		mustPanic(t, fmt.Sprintf("NewWithChunkShift(8, %d)", shift), func() { NewWithChunkShift(8, shift) })
	}
	for _, shift := range []uint{addr.BlockShift + 1, MaxChunkShift} {
		w := NewWithChunkShift(8, shift)
		if got, want := w.BlocksPerChunk(), 1<<(shift-addr.BlockShift); got != want {
			t.Errorf("shift %d: BlocksPerChunk = %d, want %d", shift, got, want)
		}
	}
}

// TestTBound rejects a window whose block ages could pass a uint32,
// before allocating its wheel.
func TestTBound(t *testing.T) {
	if uint64(math.MaxInt) <= math.MaxUint32 {
		t.Skip("int cannot exceed uint32")
	}
	tooLong := uint64(math.MaxUint32) + 1
	mustPanic(t, "New(MaxUint32+1)", func() { New(int(tooLong)) })
}

// TestSlotIndexBound checks that the arena's record limit keeps every
// slot index inside a uint32 and below none, the wheel's end-of-list
// marker, with no record to spare, and that a chunk past the limit
// panics instead of wrapping.
func TestSlotIndexBound(t *testing.T) {
	for _, shift := range []uint{addr.BlockShift + 1, addr.ChunkShift, MaxChunkShift} {
		w := NewWithChunkShift(8, shift)
		if top, want := w.maxRecs<<w.bits-1, uint64(none)-1<<w.bits; top != want {
			t.Errorf("shift %d: highest slot index %#x, want %#x", shift, top, want)
		}
	}
	w := New(8)
	w.maxRecs = 2
	w.Step(0)
	w.Step(addr.BlocksPerChunk)
	w.Step(1) // chunk 0 again: no new record
	mustPanic(t, "a third active chunk past a two-record limit", func() { w.Step(2 * addr.BlocksPerChunk) })
}

func TestSingleBlock(t *testing.T) {
	w := New(4)
	w.Step(7)
	if w.ActiveBlocks() != 1 || !w.BlockActive(7) {
		t.Fatal("block 7 should be active")
	}
	// Three more refs to a different block: 7 still in window (T=4).
	w.Step(8)
	w.Step(8)
	w.Step(8)
	if !w.BlockActive(7) {
		t.Fatal("block 7 should still be active after 3 more refs")
	}
	// One more: the ref to 7 expires.
	w.Step(8)
	if w.BlockActive(7) {
		t.Fatal("block 7 should have expired")
	}
	if w.ActiveBlocks() != 1 {
		t.Fatalf("active = %d, want 1", w.ActiveBlocks())
	}
}

func TestRepeatedBlockDoesNotExpireEarly(t *testing.T) {
	w := New(3)
	w.Step(1)
	w.Step(1)
	w.Step(2)
	w.Step(3) // expires first ref to 1; second ref to 1 still in window
	if !w.BlockActive(1) {
		t.Fatal("block 1 must remain active while any ref is in window")
	}
	w.Step(3) // expires second ref to 1
	if w.BlockActive(1) {
		t.Fatal("block 1 should have expired")
	}
}

func TestChunkActiveCounts(t *testing.T) {
	w := New(100)
	// Touch blocks 0..4 of chunk 0 and block 0 of chunk 1.
	for i := 0; i < 5; i++ {
		w.Step(addr.PN(i))
	}
	w.Step(addr.PN(addr.BlocksPerChunk)) // chunk 1, block 0
	if got := w.ChunkActive(0); got != 5 {
		t.Fatalf("chunk 0 active = %d, want 5", got)
	}
	if got := w.ChunkActive(1); got != 1 {
		t.Fatalf("chunk 1 active = %d, want 1", got)
	}
	if got := w.ChunkActive(2); got != 0 {
		t.Fatalf("chunk 2 active = %d, want 0", got)
	}
	idx := w.ActiveBlocksOf(0)
	want := []uint{0, 1, 2, 3, 4}
	if len(idx) != len(want) {
		t.Fatalf("ActiveBlocksOf = %v", idx)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("ActiveBlocksOf = %v, want %v", idx, want)
		}
	}
}

func TestHooks(t *testing.T) {
	w := New(2)
	var enters, leaves []addr.PN
	w.OnBlockEnter = func(b addr.PN) { enters = append(enters, b) }
	w.OnBlockLeave = func(b addr.PN) { leaves = append(leaves, b) }
	w.Step(10)
	w.Step(11)
	w.Step(12) // 10 leaves
	w.Step(10) // 11 leaves, 10 re-enters
	wantEnters := []addr.PN{10, 11, 12, 10}
	wantLeaves := []addr.PN{10, 11}
	if len(enters) != len(wantEnters) || len(leaves) != len(wantLeaves) {
		t.Fatalf("enters=%v leaves=%v", enters, leaves)
	}
	for i := range wantEnters {
		if enters[i] != wantEnters[i] {
			t.Fatalf("enters=%v want %v", enters, wantEnters)
		}
	}
	for i := range wantLeaves {
		if leaves[i] != wantLeaves[i] {
			t.Fatalf("leaves=%v want %v", leaves, wantLeaves)
		}
	}
}

func TestStepVA(t *testing.T) {
	w := New(10)
	w.StepVA(0x5123)
	if !w.BlockActive(addr.PN(5)) {
		t.Fatal("StepVA should map address to its block")
	}
}

// Cross-check the incremental tracker against a naive recomputation over
// random reference streams with varying locality, at the default 32KB
// chunks and at 64KB chunks.
func TestAgainstNaiveModel(t *testing.T) {
	for _, shift := range []uint{addr.ChunkShift, addr.Shift64K} {
		for _, T := range []int{1, 2, 7, 64, 250} {
			checkAgainstNaiveModel(t, shift, T)
		}
	}
}

func checkAgainstNaiveModel(t *testing.T, shift uint, T int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(T)))
	w := NewWithChunkShift(T, shift)
	m := &refModel{T: T, chunkShift: shift}
	per := w.BlocksPerChunk()
	for i := 0; i < 5000; i++ {
		var b addr.PN
		switch rng.Intn(3) {
		case 0: // hot set
			b = addr.PN(rng.Intn(4))
		case 1: // one chunk's blocks
			b = addr.PN(64 + rng.Intn(per))
		default: // wide range
			b = addr.PN(rng.Intn(1000))
		}
		w.Step(b)
		m.step(b)
		if i%97 != 0 {
			continue
		}
		want := m.activeBlocks()
		if w.ActiveBlocks() != len(want) {
			t.Fatalf("shift=%d T=%d step=%d active=%d want %d", shift, T, i, w.ActiveBlocks(), len(want))
		}
		for b := range want {
			if !w.BlockActive(b) {
				t.Fatalf("shift=%d T=%d step=%d block %d should be active", shift, T, i, b)
			}
		}
		for _, c := range []addr.PN{0, 8, addr.PN(64 / per), 100} {
			if got, want := w.ChunkActive(c), m.chunkActive(c); got != want {
				t.Fatalf("shift=%d T=%d step=%d chunk %d active=%d want %d", shift, T, i, c, got, want)
			}
		}
	}
	if w.Steps() != 5000 {
		t.Fatalf("shift=%d T=%d: Steps = %d", shift, T, w.Steps())
	}
}

// Property: ActiveBlocks never exceeds min(T, distinct blocks ever seen),
// and chunk active counts are always within [0, BlocksPerChunk] and sum
// to ActiveBlocks.
func TestInvariants(t *testing.T) {
	f := func(blocks []uint16, tRaw uint8) bool {
		T := int(tRaw)%50 + 1
		w := New(T)
		seen := map[addr.PN]bool{}
		chunks := map[addr.PN]bool{}
		for _, raw := range blocks {
			b := addr.PN(raw % 512)
			w.Step(b)
			seen[b] = true
			chunks[addr.ChunkOfBlock(b)] = true
			if w.ActiveBlocks() > T || w.ActiveBlocks() > len(seen) {
				return false
			}
			sum := 0
			for c := range chunks {
				n := w.ChunkActive(c)
				if n < 0 || n > addr.BlocksPerChunk {
					return false
				}
				sum += n
			}
			if sum != w.ActiveBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStep(b *testing.B) {
	w := New(1 << 16)
	rng := rand.New(rand.NewSource(1))
	blocks := make([]addr.PN, 1<<14)
	for i := range blocks {
		blocks[i] = addr.PN(rng.Intn(1 << 12))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(blocks[i&(len(blocks)-1)])
	}
}

func TestActiveChunks(t *testing.T) {
	w := New(100)
	for i := 0; i < 5; i++ {
		w.Step(addr.PN(i)) // chunk 0: 5 blocks
	}
	w.Step(addr.PN(addr.BlocksPerChunk * 3)) // chunk 3: 1 block
	got := map[addr.PN]int{}
	w.ActiveChunks(func(c addr.PN, blocks int) { got[c] = blocks })
	if len(got) != 2 || got[0] != 5 || got[3] != 1 {
		t.Fatalf("active chunks: %v", got)
	}
}

// Property: enter and leave events are balanced against the active
// count at every step, for arbitrary streams.
func TestHookBalanceProperty(t *testing.T) {
	f := func(blocks []uint16, tRaw uint8) bool {
		T := int(tRaw)%40 + 1
		w := New(T)
		enters, leaves := 0, 0
		w.OnBlockEnter = func(addr.PN) { enters++ }
		w.OnBlockLeave = func(addr.PN) { leaves++ }
		for _, raw := range blocks {
			w.Step(addr.PN(raw % 128))
			if enters-leaves != w.ActiveBlocks() {
				return false
			}
			if leaves > enters {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

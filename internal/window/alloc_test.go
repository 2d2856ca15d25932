package window

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
)

// allocShifts are the chunk shifts the allocation pins cover: the
// paper's 32KB chunks and 64KB chunks, whose records are twice as wide.
var allocShifts = []uint{addr.ChunkShift, addr.Shift64K}

// TestStepAllocs pins the sliding-window update at zero steady-state
// allocations: after the chunk index and the record arena have grown
// to the stream's footprint, every Step — including expiry traffic
// with its record recycling and backward-shift deletes — must be pure
// table and arena updates.
func TestStepAllocs(t *testing.T) {
	stream := kernelref.BlockStream(1 << 15)
	for _, shift := range allocShifts {
		w := NewWithChunkShift(1<<12, shift)
		for _, b := range stream {
			w.Step(b)
		}
		i := 0
		avg := testing.AllocsPerRun(5000, func() {
			w.Step(stream[i&(1<<15-1)])
			i++
		})
		if avg != 0 {
			t.Errorf("chunk shift %d: Tracker.Step allocates %.2f times per call, want 0", shift, avg)
		}
	}
}

// The hooks run inside Step; closures there must not re-introduce
// allocation either.
func TestStepAllocsWithHooks(t *testing.T) {
	stream := kernelref.BlockStream(1 << 15)
	for _, shift := range allocShifts {
		w := NewWithChunkShift(1<<12, shift)
		enters, leaves := 0, 0
		w.OnBlockEnter = func(addr.PN) { enters++ }
		w.OnBlockLeave = func(addr.PN) { leaves++ }
		for _, b := range stream {
			w.Step(b)
		}
		i := 0
		avg := testing.AllocsPerRun(5000, func() {
			w.Step(stream[i&(1<<15-1)])
			i++
		})
		if avg != 0 {
			t.Errorf("chunk shift %d: Tracker.Step with hooks allocates %.2f times per call, want 0", shift, avg)
		}
		if enters == 0 || leaves == 0 {
			t.Fatalf("chunk shift %d: hooks did not run (enters %d, leaves %d)", shift, enters, leaves)
		}
	}
}

// TestStepRecyclesRecords sweeps a range sixteen windows wide, so every
// chunk enters and leaves the window once per sweep. After one sweep
// the arena holds the window's peak chunk count, and a whole further
// sweep must allocate nothing: each entering chunk takes a record the
// free list recycled. AllocsPerRun's per-run average rounds down, so
// each run is a full sweep and a single allocation fails the test.
func TestStepRecyclesRecords(t *testing.T) {
	const T = 1 << 12
	for _, shift := range allocShifts {
		w := NewWithChunkShift(T, shift)
		w.OnBlockLeave = func(addr.PN) {}
		sweep := func() {
			for b := addr.PN(0); b < 16*T; b++ {
				w.Step(b)
			}
		}
		sweep()
		if avg := testing.AllocsPerRun(3, sweep); avg != 0 {
			t.Errorf("chunk shift %d: a steady-state sweep allocates %.0f times, want 0", shift, avg)
		}
		// The window spans T blocks, so at most T/per + 1 chunks.
		if peak := T/w.BlocksPerChunk() + 1; len(w.recs) > peak {
			t.Errorf("chunk shift %d: arena holds %d records, want at most %d", shift, len(w.recs), peak)
		}
	}
}

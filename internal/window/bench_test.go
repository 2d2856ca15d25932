package window

import (
	"math/rand"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
)

// BenchmarkTrackerStep measures the window kernel on a cache-resident
// stream (about 2K hot blocks). It steps through the stream once before
// timing, so a one-iteration run reports steady-state allocations
// rather than the first records' growth.
func BenchmarkTrackerStep(b *testing.B) {
	stream := kernelref.BlockStream(1 << 16)
	w := New(1 << 14)
	for _, blk := range stream {
		w.Step(blk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(stream[i&(1<<16-1)])
	}
}

// BenchmarkTrackerStepRandom measures the window kernel where it is
// memory-bound: uniform references over 2^16 blocks (256MB) with
// T = 2^19, the footprint of perfbench's pass-walk-random. Nearly every
// block is active, so each Step lands on random lines of the chunk
// index and the arena. The window is full before timing starts.
func BenchmarkTrackerStepRandom(b *testing.B) {
	const T, blocks = 1 << 19, 1 << 16
	rng := rand.New(rand.NewSource(1))
	stream := make([]addr.PN, 1<<20)
	for i := range stream {
		stream[i] = addr.PN(rng.Intn(blocks))
	}
	w := New(T)
	for _, blk := range stream[:T] {
		w.Step(blk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(stream[i&(len(stream)-1)])
	}
}

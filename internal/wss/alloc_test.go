package wss

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
	"twopage/internal/policy"
)

// TestStepAllocs pins the working-set window update of a whole stream
// (start 0) at zero steady-state allocations. The per-shift maps grow
// while the footprint is first touched; after that warmup every Step
// must be pure map updates.
func TestStepAllocs(t *testing.T) {
	s := NewStatic(1<<16, 0, addr.BlockShift, addr.ChunkShift)
	// Touch the whole address range once so the maps are fully grown.
	for i := 0; i < 1<<14; i++ {
		s.Step(addr.VA(i * 4096))
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		s.Step(addr.VA(uint64(i*4096) % (1 << 26)))
		i++
	})
	if avg != 0 {
		t.Errorf("Static.Step allocates %.2f times per call, want 0", avg)
	}
}

// TestShardStepAllocs pins the step of a later section (start > 0) —
// the per-reference hot loop of a sharded static pass — at zero
// steady-state allocations, like the whole-stream Step above. The
// section's first-access table grows only while the footprint is new.
func TestShardStepAllocs(t *testing.T) {
	s := NewStatic(1<<16, 1<<20, addr.BlockShift, addr.ChunkShift)
	for i := 0; i < 1<<14; i++ {
		s.Step(addr.VA(i * 4096))
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		s.Step(addr.VA(uint64(i*4096) % (1 << 26)))
		i++
	})
	if avg != 0 {
		t.Errorf("section Static.Step allocates %.2f times per call, want 0", avg)
	}
}

// TestObserveWarmAllocs pins the warm-up observer at zero allocations
// per reference: every sharded run replays up to a full policy window
// through it before measuring, so it is as hot as Observe itself.
func TestObserveWarmAllocs(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(1 << 12))
	ts := NewTwoSize(pol)
	stream := kernelref.VAStream(1 << 15)
	for _, va := range stream {
		ts.ObserveWarm(pol.Assign(va))
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		va := stream[i&(1<<15-1)]
		ts.ObserveWarm(pol.Assign(va))
		i++
	})
	if avg != 0 {
		t.Errorf("Assign+ObserveWarm allocates %.2f times per reference, want 0", avg)
	}
}

// TestObserveAllocs pins the two-size working-set observer — policy
// assign, window hooks, incremental size accumulation — at zero
// steady-state allocations per reference.
func TestObserveAllocs(t *testing.T) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(1 << 12))
	ts := NewTwoSize(pol)
	stream := kernelref.VAStream(1 << 15)
	for _, va := range stream {
		ts.Observe(pol.Assign(va))
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		va := stream[i&(1<<15-1)]
		ts.Observe(pol.Assign(va))
		i++
	})
	if avg != 0 {
		t.Errorf("Assign+Observe allocates %.2f times per reference, want 0", avg)
	}
}

// TestSampledCurrentAllocs pins a warmed-up Sampled.Current — the
// chunk walk core.WithSampledWSS runs every sample period — at zero
// allocations, for a three-class ladder (the ascending ActiveChunks
// walk, whose sorted-key scratch the window keeps) and a two-class
// policy (the unordered Chunks walk): Current's callbacks do not
// escape.
func TestSampledCurrentAllocs(t *testing.T) {
	classes := addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)
	for _, pol := range []policy.MultiSize{
		policy.NewLadder(policy.DefaultLadderConfig(1<<12, classes)),
		policy.NewTwoSize(policy.DefaultTwoSizeConfig(1 << 12)),
	} {
		s := mustSampled(t, pol, 1<<12, 0)
		for _, va := range kernelref.VAStream(1 << 15) {
			pol.Assign(va)
			s.Step(va)
		}
		if s.Current() == 0 {
			t.Fatalf("%s: empty working set; the stream did not warm the window", pol.Name())
		}
		if avg := testing.AllocsPerRun(100, func() { s.Current() }); avg != 0 {
			t.Errorf("%s: Sampled.Current allocates %.2f times per call, want 0", pol.Name(), avg)
		}
	}
}

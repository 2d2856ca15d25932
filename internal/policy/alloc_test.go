package policy

import (
	"reflect"
	"testing"
	"unsafe"

	"twopage/internal/addr"
)

// policyStream is a deterministic mix of hot-loop and excursion
// references that triggers promotions and demotions.
func policyStream(n int) []addr.VA {
	out := make([]addr.VA, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i%11 == 0 {
			out[i] = addr.VA(x % (1 << 24))
			continue
		}
		out[i] = addr.VA(x % (1 << 18))
	}
	return out
}

// TestAssignAllocs pins the dynamic policies' per-reference path —
// window step, chunk-activity and child-count probes, mapped-set
// updates — at zero steady-state allocations, for the two-size policy
// and a three-class ladder.
func TestAssignAllocs(t *testing.T) {
	two := NewTwoSize(DefaultTwoSizeConfig(1 << 12))
	ladder := NewLadder(DefaultLadderConfig(1<<12,
		addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift, addr.Shift256K)))
	for _, tc := range []struct {
		pol        Assigner
		promotions func() uint64
	}{
		{two, func() uint64 { return two.Stats().Promotions }},
		{ladder, func() uint64 { return ladder.Stats().Promotions[1] }},
	} {
		stream := policyStream(1 << 15)
		for _, va := range stream {
			tc.pol.Assign(va)
		}
		if tc.promotions() == 0 {
			t.Fatalf("%s: warmup produced no promotions; stream too cold to be a meaningful pin", tc.pol.Name())
		}
		i := 0
		avg := testing.AllocsPerRun(5000, func() {
			tc.pol.Assign(stream[i&(1<<15-1)])
			i++
		})
		if avg != 0 {
			t.Errorf("%s: Assign allocates %.2f times per call, want 0", tc.pol.Name(), avg)
		}
	}
}

// TestResultFitsInRegisters pins Result's layout. Every reference
// returns a Result, and the Go compiler keeps a struct in registers
// only while it has at most four fields and at most four words, 32
// bytes on 64-bit targets (cmd/compile/internal/ssa.CanSSA). Past
// either limit each Assign builds its Result in memory and the caller
// copies it out with 16-byte loads that span the 1-byte Event store,
// a store-forwarding stall on every reference.
func TestResultFitsInRegisters(t *testing.T) {
	if n := reflect.TypeOf(Result{}).NumField(); n > 4 {
		t.Errorf("Result has %d fields, want at most 4", n)
	}
	if size := unsafe.Sizeof(Result{}); size > 32 {
		t.Errorf("Result is %d bytes, want at most 32", size)
	}
}

// TestNapotAssignAllocs pins the windowless policy's path too, at the
// paper's two-size threshold.
func TestNapotAssignAllocs(t *testing.T) {
	p := promoteOnce(4)
	stream := policyStream(1 << 15)
	for _, va := range stream {
		p.Assign(va)
	}
	if p.Stats().Promotions[1] == 0 {
		t.Fatal("warmup produced no promotions; stream too cold to be a meaningful pin")
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		p.Assign(stream[i&(1<<15-1)])
		i++
	})
	if avg != 0 {
		t.Errorf("Napot.Assign allocates %.2f times per call, want 0", avg)
	}
}

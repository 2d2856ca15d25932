package window

import (
	"math"
	"reflect"
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

// TestMemoryNotSizedByT steps the kernelref block stream through
// trackers whose windows run from one reference to 2^32−1. Only the
// wheel is sized by T: near holds 2^⌈½·log₂T⌉ slots, between √T and
// 2√T, and far T>>⌈½·log₂T⌉ + 2 lists. Every other slice the tracker
// holds, the chunk index's included, is sized by the active chunks: it
// is the same for every window that holds the whole stream and no
// larger for a shorter one. All of it stays under 1MB at every T.
func TestMemoryNotSizedByT(t *testing.T) {
	stream := kernelref.BlockStream(1 << 15)
	var whole map[string]int // bytes per field with the whole stream active
	for _, T := range []int{math.MaxUint32, 500_000, 4096, 1} {
		w := New(T)
		for _, b := range stream {
			w.Step(b)
		}
		bytes := sliceBytes(w)
		G := 1 << w.nearBits
		if G*G < T || G*G >= 4*T {
			t.Errorf("T=%d: %d near slots, want between √T and 2√T", T, G)
		}
		if bytes["near"] != 4*G || bytes["far"] != 4*(T/G+2) {
			t.Errorf("T=%d: near %d and far %d bytes, want %d and %d", T, bytes["near"], bytes["far"], 4*G, 4*(T/G+2))
		}
		total := 0
		for field, n := range bytes {
			total += n
			if field == "near" || field == "far" {
				continue
			}
			switch {
			case whole == nil:
			case T >= len(stream) && n != whole[field]:
				t.Errorf("T=%d: %s holds %d bytes, want %d as at T=2^32-1", T, field, n, whole[field])
			case n > whole[field]:
				t.Errorf("T=%d: %s holds %d bytes, more than %d at T=2^32-1", T, field, n, whole[field])
			}
		}
		if total >= 1<<20 {
			t.Errorf("T=%d: tracker holds %d bytes of slices, want under 1MB", T, total)
		}
		if whole == nil {
			whole = bytes
		}
	}
}

// sliceBytes returns, for each field of w, the bytes of slice capacity
// it reaches through pointers and struct fields.
func sliceBytes(w *Tracker) map[string]int {
	v := reflect.ValueOf(w).Elem()
	out := map[string]int{}
	for i := range v.NumField() {
		out[v.Type().Field(i).Name] = capBytes(v.Field(i))
	}
	return out
}

func capBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			return capBytes(v.Elem())
		}
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += capBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	}
	return 0
}

package wss

import (
	"testing"

	"twopage/internal/addr"
	"twopage/internal/kernelref"
	"twopage/internal/policy"
)

var benchShifts = []uint{addr.Shift4K, addr.Shift8K, addr.Shift16K, addr.Shift32K, addr.Shift64K}

// BenchmarkStaticStep measures the htab-based working-set kernel over
// five page sizes.
func BenchmarkStaticStep(b *testing.B) {
	stream := kernelref.VAStream(1 << 16)
	s := NewStatic(1<<20, 0, benchShifts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(stream[i&(1<<16-1)])
	}
}

// BenchmarkSampledStep measures the sampled working-set step that
// core.WithSampledWSS adds to every reference: "shared" reads the
// two-size policy's own window, so a step is a counter and, every
// 256th, a walk of the window's chunks; "own" serves a windowless
// policy, so every step also advances the sampler's window. The policy assigns the stream
// once first, so the timed loop is the sampler alone.
func BenchmarkSampledStep(b *testing.B) {
	stream := kernelref.VAStream(1 << 16)
	for _, bc := range []struct {
		name string
		pol  policy.MultiSize
	}{
		{"shared", policy.NewTwoSize(policy.DefaultTwoSizeConfig(1 << 12))},
		{"own", policy.NewNapot(policy.NapotConfig{
			Classes:    addr.MustShiftClasses(addr.BlockShift, addr.ChunkShift),
			Thresholds: []int{addr.BlocksPerChunk / 2},
		})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewSampled(bc.pol, 1<<12, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, va := range stream {
				bc.pol.Assign(va)
				s.Step(va)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(stream[i&(1<<16-1)])
			}
		})
	}
}

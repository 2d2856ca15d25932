package htab

import (
	"testing"

	"twopage/internal/kernelref"
)

// The benchmarks run on kernelref's deterministic key streams over a
// bounded key space, the page-number shape every kernel feeds the
// tables.

func BenchmarkU64Put(b *testing.B) {
	keys := kernelref.Keys(1<<16, 1<<14)
	h := NewU64(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(keys[i&(1<<16-1)], uint64(i))
	}
}

func BenchmarkU64Get(b *testing.B) {
	keys := kernelref.Keys(1<<16, 1<<14)
	h := NewU64(1 << 14)
	for _, k := range keys {
		h.Put(k, k)
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := h.Get(keys[i&(1<<16-1)])
		sink += v
	}
	_ = sink
}

// Churn alternates insert and delete, the window's steady state; it is
// the case tombstone schemes degrade on and backward shift does not.
func BenchmarkU64Churn(b *testing.B) {
	keys := kernelref.Keys(1<<16, 1<<13)
	h := NewU64(1 << 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		if i&1 == 0 {
			h.Put(k, uint64(i))
		} else {
			h.Delete(k)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	keys := kernelref.Keys(1<<16, 1<<12)
	c := NewCounter(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		if i&1 == 0 {
			c.Add(k, 1)
		} else if c.Get(k) > 0 {
			c.Add(k, -1)
		}
	}
}

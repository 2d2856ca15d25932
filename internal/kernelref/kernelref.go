// Package kernelref holds the deterministic input streams that the
// kernel benchmarks and allocation tests of internal/htab, internal/wss,
// internal/window, internal/pagetable and internal/core run on. That is
// all it holds; nothing in the simulation path imports it.
package kernelref

import "twopage/internal/addr"

// xorshift is the benchmark stream generator: deterministic, seeded,
// allocation-free.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// VAStream generates a reference stream with the shape the simulators
// see: a hot loop over a bounded working set with a drifting base and
// strided excursions.
func VAStream(n int) []addr.VA {
	out := make([]addr.VA, n)
	x := xorshift(0x9E3779B97F4A7C15)
	base := uint64(0)
	for i := range out {
		v := x.next()
		switch {
		case i%64 == 63:
			base += 1 << 15 // drift one chunk
		case i%17 == 0:
			out[i] = addr.VA(base + v%(1<<24)) // excursion
			continue
		}
		out[i] = addr.VA(base + v%(1<<19)) // 512KB hot loop
	}
	return out
}

// BlockStream generates a block-number stream: a hot set of ~2K blocks
// with cold excursions — the delete-heavy shape that exercises window
// expiry (and backward-shift deletion) hard.
func BlockStream(n int) []addr.PN {
	out := make([]addr.PN, n)
	x := xorshift(0x2545F4914F6CDD1D)
	for i := range out {
		v := x.next()
		if i%13 == 0 {
			out[i] = addr.PN(v % (1 << 18)) // cold excursion
			continue
		}
		out[i] = addr.PN(v % (1 << 11)) // ~2K hot blocks
	}
	return out
}

// LookupVAs spreads page-table lookups over a 64MB region, half of it
// mapped, so hits and misses both occur.
func LookupVAs(n int) []addr.VA {
	out := make([]addr.VA, n)
	x := xorshift(0x2545F4914F6CDD1D)
	for i := range out {
		out[i] = addr.VA(x.next() % (1 << 26))
	}
	return out
}

// Keys generates a uint64 key stream over a bounded key space for the
// htab microbenchmarks.
func Keys(n int, space uint64) []uint64 {
	out := make([]uint64, n)
	x := xorshift(0x9E3779B97F4A7C15)
	for i := range out {
		out[i] = x.next() % space
	}
	return out
}

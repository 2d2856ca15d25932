package wss

import (
	"twopage/internal/htab"
)

// MergeStatic folds the static working-set state of consecutive
// sections into the calculator of the concatenated stream, whose Finish
// yields the per-shift results a serial pass would have produced.
// Sections must be given in stream order, each started at its global
// offset (NewStatic's start), and agree on (T, shifts); empty sections
// are fine. The merge is exact: intra-section gaps were accumulated
// locally, boundary gaps are spliced here from the first/last tables,
// and Finish adds the closing tails over the global stream length —
// all integer arithmetic, so the result is byte-identical to the
// serial pass for any partition.
func MergeStatic(shards []*Static) *Static {
	if len(shards) == 0 {
		panic("wss: MergeStatic needs at least one shard")
	}
	ref := shards[0]
	out := &Static{
		t:      ref.t,
		shifts: ref.shifts,
		last:   make([]*htab.U64, len(ref.shifts)),
		acc:    make([]uint64, len(ref.shifts)),
		start:  ref.start,
	}
	for _, sh := range shards {
		out.steps += sh.steps
	}
	for i := range ref.shifts {
		// carry maps page -> last access time in any shard processed so
		// far; walking shards in section order makes each boundary gap a
		// consecutive-access pair of the serial stream.
		carry := htab.NewU64(1 << 10)
		for _, sh := range shards {
			out.acc[i] += sh.acc[i]
			if sh.first != nil { // a section at start 0 follows only empty ones
				sh.first[i].Iter(func(pn, firstT uint64) {
					if lastT, ok := carry.Get(pn); ok {
						gap := firstT - lastT
						if gap > ref.t {
							gap = ref.t
						}
						out.acc[i] += gap
					}
				})
			}
			sh.last[i].Iter(func(pn, lastT uint64) {
				carry.Put(pn, lastT)
			})
		}
		out.last[i] = carry
	}
	return out
}

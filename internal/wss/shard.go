package wss

import (
	"twopage/internal/addr"
	"twopage/internal/htab"
)

// MergeStatic folds the static working-set state of consecutive
// sections into the per-shift results Static.Finish would have
// produced over the concatenated stream. Sections must be given in
// stream order, each started at its global offset (NewStatic's start),
// and agree on (T, shifts); empty sections are fine. The merge is
// exact: intra-section gaps were accumulated locally, boundary gaps are
// spliced here from the first/last tables, and the closing tails use
// the global stream length — all integer arithmetic, so the result is
// byte-identical to the serial pass for any partition.
func MergeStatic(shards []*Static) []Result {
	if len(shards) == 0 {
		panic("wss: MergeStatic needs at least one shard")
	}
	ref := shards[0]
	totalSteps := uint64(0)
	for _, sh := range shards {
		totalSteps += sh.steps
	}
	out := make([]Result, len(ref.shifts))
	for i, shift := range ref.shifts {
		acc := uint64(0)
		// carry maps page -> last access time in any shard processed so
		// far; walking shards in section order makes each boundary gap a
		// consecutive-access pair of the serial stream.
		carry := htab.NewU64(1 << 10)
		for _, sh := range shards {
			acc += sh.acc[i]
			if sh.first != nil { // a section at start 0 follows only empty ones
				sh.first[i].Iter(func(pn, firstT uint64) {
					if lastT, ok := carry.Get(pn); ok {
						gap := firstT - lastT
						if gap > ref.t {
							gap = ref.t
						}
						acc += gap
					}
				})
			}
			sh.last[i].Iter(func(pn, lastT uint64) {
				carry.Put(pn, lastT)
			})
		}
		carry.Iter(func(_, lastT uint64) {
			gap := totalSteps - lastT
			if gap > ref.t {
				gap = ref.t
			}
			acc += gap
		})
		size := uint64(1) << shift
		var avg float64
		if totalSteps > 0 {
			avg = float64(acc) * float64(size) / float64(totalSteps)
		}
		out[i] = Result{
			Scheme:   addr.PageSize(size).String(),
			AvgBytes: avg,
			Pages:    uint64(carry.Len()),
			Samples:  totalSteps,
		}
	}
	return out
}

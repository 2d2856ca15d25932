package core

import "twopage/internal/obs"

// MergeResults folds per-shard simulation results, given in section
// order, into the Result a single pass over the concatenated stream
// would report. Flow counters (references, hits, misses, transitions,
// walks) sum exactly; derived ratios (MPI, CPI_TLB, miss ratio, RPI)
// are recomputed from the merged counters; working-set averages are
// re-weighted by each shard's sample count; gauges (mapped regions,
// large-chunk counts) take the last non-empty shard's value, since they
// describe end-of-stream state rather than accumulated flow.
//
// A single part is returned verbatim — no recomputation — so a
// one-shard run is byte-identical to the serial pass, floats included.
// Nil parts (shards that produced nothing) are skipped.
func MergeResults(parts []*Result) *Result {
	live := parts[:0:0]
	for _, p := range parts {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	// tail is the last shard that saw references; its gauges describe
	// the end-of-stream state the serial pass would have reported.
	tail := live[len(live)-1]
	for i := len(live) - 1; i >= 0; i-- {
		if live[i].Refs > 0 {
			tail = live[i]
			break
		}
	}

	out := &Result{Policy: live[0].Policy}
	var decode obs.Counters
	for _, p := range live {
		out.Refs += p.Refs
		out.Instrs += p.Instrs
		// Decode work is the one genuinely per-shard quantity of the
		// run-report block; finish rebuilds the rest from merged stats.
		decode.DecodedRefs += p.Counters.DecodedRefs
		decode.DecodedBlocks += p.Counters.DecodedBlocks
		decode.DecodedBytes += p.Counters.DecodedBytes
	}

	for i, tr := range live[0].TLBs {
		st := tr.Stats
		for _, p := range live[1:] {
			st.Merge(p.TLBs[i].Stats)
		}
		out.TLBs = append(out.TLBs, TLBResult{Name: tr.Name, Stats: st, MissPenalty: tr.MissPenalty})
	}

	if live[0].WSS != nil {
		merged := *live[0].WSS
		merged.AvgBytes = 0
		merged.Samples = 0
		merged.Pages = 0
		var acc float64
		for _, p := range live {
			if p.WSS == nil {
				continue
			}
			acc += p.WSS.AvgBytes * float64(p.WSS.Samples)
			merged.Samples += p.WSS.Samples
			merged.Pages += p.WSS.Pages
		}
		if merged.Samples > 0 {
			merged.AvgBytes = acc / float64(merged.Samples)
		}
		out.WSS = &merged
	}

	if live[0].PolicyStats != nil {
		st := *live[0].PolicyStats
		for _, p := range live[1:] {
			if p.PolicyStats != nil {
				st.Merge(*p.PolicyStats)
			}
		}
		if tail.PolicyStats != nil {
			st.LargeChunks = tail.PolicyStats.LargeChunks
		}
		out.PolicyStats = &st
	}
	if live[0].LadderStats != nil {
		st := *live[0].LadderStats
		for _, p := range live[1:] {
			if p.LadderStats != nil {
				st.Merge(*p.LadderStats)
			}
		}
		if tail.LadderStats != nil {
			st.Mapped = tail.LadderStats.Mapped
		}
		out.LadderStats = &st
	}
	if live[0].PageTable != nil {
		st := *live[0].PageTable
		for _, p := range live[1:] {
			if p.PageTable != nil {
				st.Add(*p.PageTable)
			}
		}
		for _, p := range live {
			out.PTWalkCycles += p.PTWalkCycles
		}
		out.PageTable = &st
	}
	if live[0].Walk != nil {
		ws := *live[0].Walk
		for _, p := range live[1:] {
			if p.Walk != nil {
				ws.Merge(*p.Walk)
			}
		}
		out.Walk = &ws
	}

	// Derive the ratios and rebuild the run-report block from the merged
	// stats exactly as Run does, rather than summing the parts' blocks,
	// so the merged report is structurally identical to a serial pass
	// (one logical pass, gauges not multiply counted).
	out.finish(decode)
	return out
}

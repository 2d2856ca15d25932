package engine

import (
	"context"

	"twopage/internal/core"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// ShardPlan describes intra-trace sharding: a file-backed workload's
// reference stream is split into Shards block-aligned sections, each
// simulated by an independent worker with its own policy, TLB, and
// page-table state, and the per-shard results merged deterministically
// (core.MergeResults). Shards <= 1 disables sharding.
//
// Sharding trades a small, bounded accuracy loss for parallelism:
// counters that depend only on the reference stream (references,
// instruction mix, decode work, static working sets) merge exactly,
// while history-dependent counters (TLB misses, promotions) see a cold
// start at each shard boundary. Warmup bounds that error by replaying
// the Warmup references preceding each shard before measurement starts
// (core.Simulator.Warm); the residual error is quantified in
// the shard-invariance battery in shard_test.go and DESIGN.md §10.
type ShardPlan struct {
	// Shards is the number of sections. <= 1 means serial.
	Shards int
	// Warmup is the number of preceding references each shard (except
	// the first) replays to rebuild simulator state before measuring.
	// Zero selects AutoWarmup of the policy's window.
	Warmup uint64
}

// AutoWarmup is the default warm-up length for a policy with reference
// window T: the window itself (the policy's full decision horizon),
// floored at 64Ki references so small-window runs still warm the TLBs.
func AutoWarmup(T int) uint64 {
	const floor = 1 << 16
	if T > 0 && uint64(T) > floor {
		return uint64(T)
	}
	return floor
}

// windowT is the policy's reference-window length, 0 for single-size
// policies (which have no window — only TLB state needs warming).
func (p PolicySpec) windowT() int {
	if p.Single != 0 {
		return 0
	}
	if p.Ladder.Classes.N() >= 2 {
		return p.Ladder.T
	}
	return p.Two.T
}

// WithSharding makes the engine run file-backed units sharded under the
// plan. Generated workloads (no backing trace.File) always run serial —
// a generator has no random-access sections — as does everything when
// plan.Shards <= 1. Sharded units memoize under a key that includes the
// plan, so one engine never conflates sharded and serial results.
func WithSharding(plan ShardPlan) Option {
	return func(e *Engine) { e.shard = plan }
}

// shardFor resolves the plan for one unit: the backing file and the
// plan with Warmup defaulted from the unit's policy window. ok is false
// when the engine is serial or the workload has no backing file.
func (e *Engine) shardFor(name string, pol PolicySpec) (*trace.File, ShardPlan, bool) {
	if e.shard.Shards <= 1 {
		return nil, ShardPlan{}, false
	}
	s, err := workload.Get(name)
	if err != nil || s.File == nil {
		return nil, ShardPlan{}, false
	}
	plan := e.shard
	if plan.Warmup == 0 {
		plan.Warmup = AutoWarmup(pol.windowT())
	}
	return s.File, plan, true
}

// RunSharded simulates a memory-mapped trace in plan.Shards disjoint
// block-aligned sections and merges the per-shard results. build must
// return a fresh simulator per call (each shard owns its policy, TLBs,
// and page-table shadow), which is told where its section starts
// (core.Simulator.Section); refs > 0 truncates the stream like
// workload.Spec.New, refs == 0 runs the whole file. Every shard after
// the first warms up on the plan.Warmup references preceding its
// section (clamped to the start of the file) before measuring.
// plan.Shards <= 1 maps one section, the whole file, whose result
// core.MergeResults returns unchanged: the serial pass, bit for bit.
//
// RunSharded waits on pool futures, so it must run on a coordinator
// goroutine, never inside a pool slot (the engine's sharded units run
// it off the pool).
func RunSharded(e *Engine, ctx context.Context, f *trace.File, refs uint64, plan ShardPlan, label string, build func() (*core.Simulator, error)) (*core.Result, error) {
	n := e.sections(f, max(plan.Shards, 1))
	parts, err := MapSections(e, ctx, f, n, label, func(ctx context.Context, r *trace.MapReader, section int) (*core.Result, error) {
		sim, err := build()
		if err != nil {
			return nil, err
		}
		sim.Section(f.SectionStart(section, n))
		rd, left := limitSection(f, r, section, n, refs)
		if section > 0 && plan.Warmup > 0 && left > 0 {
			if err := sim.Warm(ctx, f.Preroll(section, n, plan.Warmup)); err != nil {
				return nil, err
			}
		}
		return sim.Run(ctx, rd)
	}).Wait(ctx)
	if err != nil {
		return nil, err
	}
	return core.MergeResults(parts), nil
}

// limitSection truncates section r of n to the part of it that lies
// within the first refs references of f (all of them when refs is 0),
// returning the reader and how many references it yields.
func limitSection(f *trace.File, r *trace.MapReader, section, n int, refs uint64) (trace.Reader, uint64) {
	if refs == 0 || refs > f.Refs() {
		refs = f.Refs()
	}
	left := refs - min(refs, f.SectionStart(section, n))
	if left < f.SectionRefs(section, n) {
		return trace.NewLimit(r, left), left
	}
	return r, left
}

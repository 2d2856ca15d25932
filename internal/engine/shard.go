package engine

import (
	"context"

	"twopage/internal/core"
	"twopage/internal/obs"
	"twopage/internal/trace"
	"twopage/internal/workload"
	"twopage/internal/wss"
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

// keyedOffPool memoizes fn under key like keyed, but runs it on a plain
// goroutine instead of a pool slot. This is the coordinator form: a
// sharded unit submits MapSections work to the pool and waits for it,
// which must never happen from inside a slot (a pool of size 1 would
// deadlock waiting for itself). Cache hits and events behave exactly as
// for keyed units.
func keyedOffPool[T any](e *Engine, ctx context.Context, key string, fn func(context.Context) (T, error)) *Future[T] {
	e.submitted.Add(1)
	e.mu.Lock()
	if cached, ok := e.passes[key]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return adapt[T](ctx, key, e, cached)
	}
	shared := newFuture[any]()
	e.passes[key] = shared
	e.mu.Unlock()

	f := newFuture[T]()
	go func() {
		defer close(shared.done)
		defer close(f.done)
		v, err := fn(ctx)
		if err != nil {
			f.err, shared.err = err, err
			e.evict(key)
			e.emit(key, false, err)
			return
		}
		f.val, shared.val = v, v
		e.emit(key, false, nil)
	}()
	return f
}

// RunSharded simulates a memory-mapped trace in plan.Shards disjoint
// block-aligned sections and merges the per-shard results. build must
// return a fresh simulator per call (each shard owns its policy, TLBs,
// and page-table shadow); refs > 0 truncates the stream like
// workload.Spec.New, refs == 0 runs the whole file. Every shard after
// the first warms up on the plan.Warmup references preceding its
// section (clamped to the start of the file) before measuring.
//
// RunSharded waits on pool futures, so it must run on a coordinator
// goroutine, never inside a pool slot (use keyedOffPool or call it from
// the submitting goroutine). plan.Shards <= 1 runs the serial path on
// the calling goroutine, byte-identical to an unsharded run.
func RunSharded(e *Engine, ctx context.Context, f *trace.File, refs uint64, plan ShardPlan, label string, build func() (*core.Simulator, error)) (*core.Result, error) {
	if refs == 0 || refs > f.Refs() {
		refs = f.Refs()
	}
	if plan.Shards <= 1 {
		sim, err := build()
		if err != nil {
			return nil, err
		}
		var r trace.Reader = f.Reader()
		if refs < f.Refs() {
			r = trace.NewLimit(r, refs)
		}
		return sim.Run(ctx, r)
	}
	n := plan.Shards
	parts, err := MapSections(e, ctx, f, n, label, func(ctx context.Context, r *trace.MapReader, section int) (*core.Result, error) {
		// MapSections may have clamped n to the block count; recover
		// the effective count from the reader's own file so section
		// arithmetic stays consistent.
		start := f.SectionStart(section, shardCount(f, n))
		left := uint64(0)
		if refs > start {
			left = refs - start
		}
		sim, err := build()
		if err != nil {
			return nil, err
		}
		if section > 0 && plan.Warmup > 0 && left > 0 {
			if err := sim.Warm(ctx, f.Preroll(section, shardCount(f, n), plan.Warmup)); err != nil {
				return nil, err
			}
		}
		var rd trace.Reader = r
		if left < f.SectionRefs(section, shardCount(f, n)) {
			rd = trace.NewLimit(r, left)
		}
		return sim.Run(ctx, rd)
	}).Wait(ctx)
	if err != nil {
		return nil, err
	}
	return core.MergeResults(parts), nil
}

// shardCount mirrors MapSections' clamping of the requested section
// count, so section indices passed to SectionStart/Preroll line up with
// the sections the workers actually received.
func shardCount(f *trace.File, n int) int {
	if b := f.Blocks(); n > b {
		n = b
	}
	if n < 1 {
		n = 1
	}
	return n
}

// StaticWSSSections computes the static working-set pass at window T
// for the given page shifts over the first refs references of f (all
// of them when refs is 0), in shards sections on e's pool. Unlike TLB
// simulation the merge is exact — the residency accumulation
// decomposes across any partition of the stream (wss.MergeStatic) — so
// the results equal the serial pass's for any shard count and no
// warm-up is needed. The counters hold the pass, the references
// observed, the base scheme's pages and the sections' decode work.
// Like RunSharded it waits on pool futures, so it must run on a
// coordinator goroutine.
func StaticWSSSections(e *Engine, ctx context.Context, f *trace.File, refs uint64, shards int, T uint64, shifts []uint, label string) ([]wss.Result, obs.Counters, error) {
	if refs == 0 || refs > f.Refs() {
		refs = f.Refs()
	}
	n := shardCount(f, shards)
	type part struct {
		calc *wss.Static
		dec  trace.DecodeStats
	}
	parts, err := MapSections(e, ctx, f, n, label, func(ctx context.Context, r *trace.MapReader, section int) (part, error) {
		start := f.SectionStart(section, n)
		var rd trace.Reader = r
		if left := refs - min(refs, start); left < f.SectionRefs(section, n) {
			rd = trace.NewLimit(r, left)
		}
		calc := wss.NewStatic(T, start, shifts...)
		if _, err := trace.DrainContext(ctx, rd, func(batch []trace.Ref) {
			for _, ref := range batch {
				calc.Step(ref.Addr)
			}
		}); err != nil {
			return part{}, err
		}
		return part{calc: calc, dec: r.DecodeStats()}, nil
	}).Wait(ctx)
	if err != nil {
		return nil, obs.Counters{}, err
	}
	calcs := make([]*wss.Static, len(parts))
	c := obs.Counters{Passes: 1}
	for i, p := range parts {
		calcs[i] = p.calc
		c.Refs += p.calc.Steps()
		c.DecodedRefs += p.dec.Refs
		c.DecodedBlocks += p.dec.Blocks
		c.DecodedBytes += p.dec.Bytes
	}
	results := wss.MergeStatic(calcs)
	c.WSSPages = results[0].Pages // base scheme
	return results, c, nil
}

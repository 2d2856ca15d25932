package twopage_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

// randomRefs produces a deterministic pseudo-random reference stream
// mixing a hot dense region, a medium working set, a sequential sweep,
// and cold scattered chunks — enough locality structure that the
// dynamic policies actually promote and demote, so shard boundaries cut
// through non-trivial simulator state.
func randomRefs(n int, seed uint64) []trace.Ref {
	s := seed ^ 0x9E3779B97F4A7C15
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	refs := make([]trace.Ref, n)
	for i := range refs {
		var va addr.VA
		switch next() % 4 {
		case 0:
			va = addr.VA(0x10000 + next()%(1<<15))
		case 1:
			va = addr.VA(0x400000 + next()%(1<<19))
		case 2:
			va = addr.VA(0x800000 + uint64(i)*64)
		default:
			va = addr.VA(0x2000_0000 + (next()%(1<<10))<<addr.ChunkShift)
		}
		kind := trace.Instr
		switch next() % 4 {
		case 0:
			kind = trace.Load
		case 1:
			kind = trace.Store
		}
		refs[i] = trace.Ref{Addr: va, Kind: kind}
	}
	return refs
}

// writeRandomV2 writes a randomized stream into a v2 trace file and
// memory-maps it back. Small blocks (blockRefs) give the shard planner
// many cut points.
func writeRandomV2(t *testing.T, n, blockRefs int, seed uint64) *trace.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("rand-%d-%d.trc", n, seed))
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewV2WriterBlock(out, blockRefs)
	if err := w.Write(randomRefs(n, seed)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// shardScenario is one (policy, TLB) combination the battery drives
// through the sharded and serial paths.
type shardScenario struct {
	name  string
	build func() (*core.Simulator, error)
}

// shardScenarios covers the paper's policy spectrum — single-size,
// dynamic two-size, three-level ladder, NAPOT — against the three set
// index schemes, so shard boundaries are exercised against every kind
// of history the simulator keeps.
func shardScenarios(t *testing.T, T int) []shardScenario {
	t.Helper()
	classes3, err := addr.NewSizeClasses(addr.Size4K, addr.Size32K, addr.PageSize(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	mkTLB := func(ix tlb.IndexScheme, shifts []uint) func() (tlb.TLB, error) {
		return func() (tlb.TLB, error) {
			return tlb.New(tlb.Config{Entries: 32, Ways: 2, Index: ix, Shifts: shifts})
		}
	}
	sim := func(pol func() policy.Assigner, newTLB func() (tlb.TLB, error), opts ...core.Option) func() (*core.Simulator, error) {
		return func() (*core.Simulator, error) {
			tl, err := newTLB()
			if err != nil {
				return nil, err
			}
			return core.NewSimulator(pol(), []tlb.TLB{tl}, opts...), nil
		}
	}
	twoCfg := policy.DefaultTwoSizeConfig(T)
	ladderCfg := policy.DefaultLadderConfig(T, classes3)
	napotCfg := policy.NapotConfig{Classes: classes3}
	return []shardScenario{
		{"single4k/exact", sim(
			func() policy.Assigner { return policy.NewSingle(addr.Size4K) },
			mkTLB(tlb.IndexExact, nil))},
		{"two/small", sim(
			func() policy.Assigner { return policy.NewTwoSize(twoCfg) },
			mkTLB(tlb.IndexSmall, nil))},
		{"two/large", sim(
			func() policy.Assigner { return policy.NewTwoSize(twoCfg) },
			mkTLB(tlb.IndexLarge, nil))},
		{"two/exact", sim(
			func() policy.Assigner { return policy.NewTwoSize(twoCfg) },
			mkTLB(tlb.IndexExact, nil))},
		{"two/exact/wss", sim(
			func() policy.Assigner { return policy.NewTwoSize(twoCfg) },
			mkTLB(tlb.IndexExact, nil), core.WithWSS())},
		{"two/exact/walk", sim(
			func() policy.Assigner { return policy.NewTwoSize(twoCfg) },
			mkTLB(tlb.IndexExact, nil), core.WithWalkModel(walk.Config{
				PWCEntries: walk.DefaultPWCEntries,
				MemBytes:   walk.DefaultMemBytes,
				HitCycles:  walk.DefaultHitCycles,
				MissCycles: walk.DefaultMissCycles,
			}))},
		{"ladder3/exact", sim(
			func() policy.Assigner { return policy.NewLadder(ladderCfg) },
			mkTLB(tlb.IndexExact, classes3.Shifts()))},
		{"ladder3/pt", sim(
			func() policy.Assigner { return policy.NewLadder(ladderCfg) },
			mkTLB(tlb.IndexExact, classes3.Shifts()), core.WithPageTable())},
		{"napot3/exact", sim(
			func() policy.Assigner { return policy.NewNapot(napotCfg) },
			mkTLB(tlb.IndexExact, classes3.Shifts()))},
	}
}

// A one-shard plan must return the serial result verbatim — every
// counter, every derived float, bit for bit. This is the battery's
// anchor: sharding is strictly opt-in degradation, and the default
// plan cannot perturb the golden-pinned serial numbers.
func TestShardedOneShardByteIdenticalToSerial(t *testing.T) {
	f := writeRandomV2(t, 60_000, 512, 7)
	ctx := context.Background()
	for _, sc := range shardScenarios(t, 10_000) {
		serialSim, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialSim.Run(ctx, f.Reader())
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(2)
		got, err := engine.RunSharded(e, ctx, f, 0, engine.ShardPlan{Shards: 1}, sc.name, sc.build)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: one-shard result differs from serial:\n got %+v\nwant %+v", sc.name, got, want)
		}
	}
}

// For a fixed shard count, the merged result must not depend on how
// many workers executed the sections — the shard analogue of the j1-
// vs-j8 experiment pins. Merge order is section order, not completion
// order.
func TestShardMergeDeterministicAcrossParallelism(t *testing.T) {
	f := writeRandomV2(t, 80_000, 256, 11)
	ctx := context.Background()
	for _, shards := range []int{2, 3, 8} {
		for _, sc := range shardScenarios(t, 10_000) {
			run := func(parallelism int) *core.Result {
				e := engine.New(parallelism)
				res, err := engine.RunSharded(e, ctx, f, 0,
					engine.ShardPlan{Shards: shards, Warmup: 20_000}, sc.name, sc.build)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq, par := run(1), run(8)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s shards=%d: merged result differs between 1 and 8 workers:\n 1: %+v\n 8: %+v",
					sc.name, shards, seq, par)
			}
		}
	}
}

// Counters that depend only on the reference stream — not on simulator
// history — must be exactly shard-count invariant: references,
// instruction mix, TLB accesses, decoded blocks and bytes. These are
// the fields the merge reconstructs by pure summation, so any drift
// here is a merge bug, not an accuracy tradeoff.
func TestShardCountExactInvariants(t *testing.T) {
	f := writeRandomV2(t, 100_000, 512, 13)
	ctx := context.Background()
	for _, sc := range shardScenarios(t, 10_000) {
		var base *core.Result
		for _, shards := range []int{1, 2, 3, 8} {
			e := engine.New(4)
			res, err := engine.RunSharded(e, ctx, f, 0,
				engine.ShardPlan{Shards: shards, Warmup: 10_000}, sc.name, sc.build)
			if err != nil {
				t.Fatal(err)
			}
			if shards == 1 {
				base = res
				continue
			}
			if res.Refs != base.Refs || res.Instrs != base.Instrs {
				t.Errorf("%s shards=%d: refs/instrs %d/%d, want %d/%d",
					sc.name, shards, res.Refs, res.Instrs, base.Refs, base.Instrs)
			}
			if res.RPI() != base.RPI() {
				t.Errorf("%s shards=%d: RPI %v, want %v", sc.name, shards, res.RPI(), base.RPI())
			}
			if got, want := res.TLBs[0].Stats.Accesses, base.TLBs[0].Stats.Accesses; got != want {
				t.Errorf("%s shards=%d: TLB accesses %d, want %d", sc.name, shards, got, want)
			}
			if res.Counters.DecodedRefs != base.Counters.DecodedRefs ||
				res.Counters.DecodedBlocks != base.Counters.DecodedBlocks ||
				res.Counters.DecodedBytes != base.Counters.DecodedBytes {
				t.Errorf("%s shards=%d: decode counters %d/%d/%d, want %d/%d/%d",
					sc.name, shards,
					res.Counters.DecodedRefs, res.Counters.DecodedBlocks, res.Counters.DecodedBytes,
					base.Counters.DecodedRefs, base.Counters.DecodedBlocks, base.Counters.DecodedBytes)
			}
		}
	}
}

// The static working-set merge is exact, so the engine's sharded
// static-WSS path must agree with the serial calculator bit for bit at
// every shard count — including the float averages and the footprint.
func TestShardedStaticWSSExact(t *testing.T) {
	f := writeRandomV2(t, 90_000, 256, 17)
	const T = 12_000
	ctx := context.Background()

	sizes := make([]addr.PageSize, len(engine.StaticShifts))
	for i, sh := range engine.StaticShifts {
		sizes[i] = addr.PageSize(1) << sh
	}
	serial, err := core.NewSimulator(policy.NewSingle(addr.Size4K), nil, core.WithStaticWSS(T, sizes...)).Run(ctx, f.Reader())
	if err != nil {
		t.Fatal(err)
	}
	want := serial.StaticWSS
	if uint64(len(serial.Footprint)) != want[0].Pages {
		t.Fatalf("serial footprint has %d pages, want %d", len(serial.Footprint), want[0].Pages)
	}

	const name = "trace:shard-wss"
	if err := workload.RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(name) })

	for _, shards := range []int{1, 2, 3, 8} {
		e := engine.New(4, engine.WithSharding(engine.ShardPlan{Shards: shards}))
		res, err := e.StaticWSS(ctx, engine.StaticWSSUnit{Workload: name, Refs: f.Refs(), T: T}).Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Footprint, serial.Footprint) {
			t.Errorf("shards=%d: footprint of %d pages, want the serial pass's %d", shards, len(res.Footprint), len(serial.Footprint))
		}
		got := res.StaticWSS
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("shards=%d shift=%d: got %+v, want %+v", shards, engine.StaticShifts[i], got[i], want[i])
			}
		}
	}
}

// The dynamic scheme's working-set pass (fig4.2, sensitivity) is a
// TLB-less Pass unit, so under a shard plan it runs in sections like
// any unit, within the battery's 2% working-set bound of the serial
// pass.
func TestShardedTLBlessWSSPass(t *testing.T) {
	f := writeRandomV2(t, 200_000, 512, 3)
	const name = "trace:shard-two-wss"
	if err := workload.RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(name) })
	ctx := context.Background()
	spec := engine.PassSpec{Workload: name, Refs: f.Refs(),
		Policy: engine.TwoSizePolicy(policy.DefaultTwoSizeConfig(30_000)), WSS: true}
	want, err := engine.New(2).Pass(ctx, spec).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	got, err := engine.New(4, engine.WithCollector(col), engine.WithSharding(engine.ShardPlan{Shards: 8})).Pass(ctx, spec).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if passes := col.Passes(); len(passes) != 1 || !strings.Contains(passes[0].Key, " shards=8 ") {
		t.Fatalf("recorded passes %+v, want one with shards=8", passes)
	}
	if got.Refs != want.Refs || got.Instrs != want.Instrs {
		t.Errorf("refs/instrs %d/%d, want %d/%d", got.Refs, got.Instrs, want.Refs, want.Instrs)
	}
	if d := math.Abs(got.WSS.AvgBytes-want.WSS.AvgBytes) / want.WSS.AvgBytes; d > 0.02 {
		t.Errorf("WSS error %.4f (%.0f vs %.0f) exceeds bound 0.02", d, got.WSS.AvgBytes, want.WSS.AvgBytes)
	}
}

// Sharded experiment rendering stays deterministic across engine
// parallelism: the full registry over a file-backed workload with a
// 3-shard plan renders byte-identically at -j 1 and -j 8, pinning the
// off-pool coordinator units and the per-shard counter merge under stable
// obs keys.
func TestShardedExperimentsDeterministicAcrossParallelism(t *testing.T) {
	f := writeV2Workload(t, "li", 80_000, 4096)
	const name = "trace:li-shardtest"
	if err := workload.RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(name) })

	render := func(parallelism int) string {
		plan := engine.ShardPlan{Shards: 3, Warmup: 8_000}
		return runAll(t, experiments.NewRunner(
			experiments.WithScale(0.01),
			experiments.WithWorkloads(name),
			experiments.WithEngine(engine.New(parallelism, engine.WithSharding(plan))),
		))
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("sharded experiment output differs between -j 1 and -j 8:\n-- j1 --\n%s\n-- j8 --\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("no output produced")
	}
}

// relErr is |got-want| / want, with the convention that matching zeros
// are exact and a disagreement about zero is maximal.
func relErr(got, want uint64) float64 {
	if got == want {
		return 0
	}
	if want == 0 {
		return 1
	}
	d := float64(got) - float64(want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// The differential accuracy pin (the documented error bound from
// DESIGN.md §10): over 200k-step randomized streams, an 8-shard run
// with the automatic warm-up stays within 2% of the serial oracle on
// miss counts and within 15% on transition counts, across index schemes
// and the ladder/NAPOT policies. Exact-by-construction fields are
// asserted equal outright. The transition bound is looser because
// promotions are rare events (tens, not thousands) — one boundary
// re-promotion moves the relative error by percents.
func TestShardedAccuracyDifferential(t *testing.T) {
	ctx := context.Background()
	const (
		missBound  = 0.02
		transBound = 0.15
	)
	for _, seed := range []uint64{3, 29} {
		f := writeRandomV2(t, 200_000, 512, seed)
		for _, sc := range shardScenarios(t, 30_000) {
			serialSim, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := serialSim.Run(ctx, f.Reader())
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New(4)
			plan := engine.ShardPlan{Shards: 8, Warmup: engine.AutoWarmup(30_000)}
			got, err := engine.RunSharded(e, ctx, f, 0, plan, sc.name, sc.build)
			if err != nil {
				t.Fatal(err)
			}

			if got.Refs != want.Refs || got.Instrs != want.Instrs {
				t.Errorf("%s seed=%d: refs/instrs %d/%d, want %d/%d",
					sc.name, seed, got.Refs, got.Instrs, want.Refs, want.Instrs)
			}
			me := relErr(got.TLBs[0].Stats.Misses(), want.TLBs[0].Stats.Misses())
			t.Logf("%s seed=%d: misses %d vs %d (err %.4f)",
				sc.name, seed, got.TLBs[0].Stats.Misses(), want.TLBs[0].Stats.Misses(), me)
			if me > missBound {
				t.Errorf("%s seed=%d: miss-count error %.4f exceeds bound %.2f", sc.name, seed, me, missBound)
			}
			checkTrans := func(label string, g, w uint64) {
				if e := relErr(g, w); e > transBound {
					t.Errorf("%s seed=%d: %s error %.4f (%d vs %d) exceeds bound %.2f",
						sc.name, seed, label, e, g, w, transBound)
				}
			}
			if want.PolicyStats != nil {
				checkTrans("promotions", got.PolicyStats.Promotions, want.PolicyStats.Promotions)
				checkTrans("demotions", got.PolicyStats.Demotions, want.PolicyStats.Demotions)
			}
			if want.LadderStats != nil {
				for k := 1; k < addr.MaxSizeClasses; k++ {
					checkTrans(fmt.Sprintf("promotions[%d]", k),
						got.LadderStats.Promotions[k], want.LadderStats.Promotions[k])
				}
			}
			if want.WSS != nil {
				ge, we := got.WSS.AvgBytes, want.WSS.AvgBytes
				d := ge - we
				if d < 0 {
					d = -d
				}
				if we > 0 && d/we > missBound {
					t.Errorf("%s seed=%d: WSS error %.4f (%.0f vs %.0f) exceeds bound %.2f",
						sc.name, seed, d/we, ge, we, missBound)
				}
			}
			if want.PageTable != nil {
				checkTrans("pt walks", got.PageTable.Lookups, want.PageTable.Lookups)
			}
		}
	}
}

// Warm-up earns its cost: with no warm-up at all, shard-boundary cold
// misses must show up (the sharded count exceeds serial), and the
// warmed run must be at least as accurate. Guards against the warm-up
// plumbing silently becoming a no-op — the accuracy test above would
// still pass if the trace were so uniform that cold state didn't
// matter.
func TestShardWarmupReducesBoundaryError(t *testing.T) {
	ctx := context.Background()
	f := writeRandomV2(t, 200_000, 512, 5)
	build := func() (*core.Simulator, error) {
		tl, err := tlb.New(tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexExact})
		if err != nil {
			return nil, err
		}
		return core.NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(30_000)), []tlb.TLB{tl}), nil
	}
	serialSim, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialSim.Run(ctx, f.Reader())
	if err != nil {
		t.Fatal(err)
	}
	run := func(warm uint64) uint64 {
		e := engine.New(4)
		res, err := engine.RunSharded(e, ctx, f, 0,
			engine.ShardPlan{Shards: 8, Warmup: warm}, "warmcheck", build)
		if err != nil {
			t.Fatal(err)
		}
		return res.TLBs[0].Stats.Misses()
	}
	// Warmup 1 rather than 0: a zero Warmup in the plan means "auto".
	cold := run(1)
	warm := run(engine.AutoWarmup(30_000))
	serial := want.TLBs[0].Stats.Misses()
	t.Logf("misses: serial %d, cold shards %d, warmed shards %d", serial, cold, warm)
	if cold <= serial {
		t.Errorf("cold sharding did not add boundary misses (cold %d <= serial %d); warm-up has nothing to fix", cold, serial)
	}
	if ce, we := relErr(cold, serial), relErr(warm, serial); we > ce {
		t.Errorf("warm-up increased miss error: cold %.4f, warmed %.4f", ce, we)
	}
}

// A WSS merge sanity pin at the Result level: sample counts must sum
// across shards, so a dropped or double-counted shard shows up even
// when the averages happen to agree.
func TestShardedWSSSampleAccounting(t *testing.T) {
	ctx := context.Background()
	f := writeRandomV2(t, 50_000, 256, 23)
	build := func() (*core.Simulator, error) {
		tl, err := tlb.New(tlb.Config{Entries: 16, Ways: 2, Index: tlb.IndexExact})
		if err != nil {
			return nil, err
		}
		return core.NewSimulator(policy.NewTwoSize(policy.DefaultTwoSizeConfig(8_000)),
			[]tlb.TLB{tl}, core.WithWSS()), nil
	}
	for _, shards := range []int{2, 5} {
		e := engine.New(4)
		res, err := engine.RunSharded(e, ctx, f, 0,
			engine.ShardPlan{Shards: shards, Warmup: 4_000}, "wss-samples", build)
		if err != nil {
			t.Fatal(err)
		}
		if res.WSS == nil {
			t.Fatalf("shards=%d: no WSS result", shards)
		}
		if res.WSS.Samples != f.Refs() {
			t.Errorf("shards=%d: WSS samples %d, want %d (warm-up refs must not be sampled)",
				shards, res.WSS.Samples, f.Refs())
		}
	}
}

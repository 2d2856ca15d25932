package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
)

// missBound is the relative first-TLB miss error the shard battery
// (shard_test.go) allows a sharded pass against the serial one.
const missBound = 0.02

// A stack is a pass workload's configuration, described layer by layer
// so the stage ladder can build every prefix of it.
type stack struct {
	spec      string // input spec under specs/
	top       string // layer the last rung adds: "wss" or "walk"
	newPolicy func() policy.Assigner
	tlbCfg    tlb.Config
	topOpt    func() core.Option
}

// Rungs of the stage ladder. Rung 0 only decodes the trace; each later
// rung adds one layer, and rungTop is the workload's full pass.
const (
	rungDecode = iota
	rungPolicy
	rungTLB
	rungPageTable
	rungTop
	numRungs
)

// sim builds a fresh simulator for rungs rungPolicy..rungTop.
func (s stack) sim(rung int) (*core.Simulator, error) {
	pol := s.newPolicy()
	if rung == rungPolicy {
		return core.NewSimulator(pol, nil), nil
	}
	tl, err := tlb.New(s.tlbCfg)
	if err != nil {
		return nil, fmt.Errorf("perfbench: building TLB: %w", err)
	}
	var opts []core.Option
	if rung >= rungPageTable {
		opts = append(opts, core.WithPageTable())
	}
	if rung >= rungTop {
		opts = append(opts, s.topOpt())
	}
	return core.NewSimulator(pol, []tlb.TLB{tl}, opts...), nil
}

// full builds the workload's complete simulator.
func (s stack) full() (*core.Simulator, error) { return s.sim(rungTop) }

// windowFor is the policy window for a trace of refs references: an
// eighth of the trace, as the experiments choose it.
func windowFor(refs uint64) int { return int(refs / 8) }

// twoStack is the paper's configuration: the dynamic 4KB/32KB policy, a
// 32-entry two-way exact-index TLB, the page-table shadow and the
// two-size working-set calculator.
func twoStack(T int) stack {
	return stack{
		spec:      "pass-two",
		top:       "wss",
		newPolicy: func() policy.Assigner { return policy.NewTwoSize(policy.DefaultTwoSizeConfig(T)) },
		tlbCfg:    tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexExact},
		topOpt:    core.WithWSS,
	}
}

// walkStack is the three-size 4KB/32KB/256KB ladder with the same TLB
// geometry and the modeled page walk at the walk package's defaults.
func walkStack(T int) (stack, error) {
	classes, err := addr.NewSizeClasses(addr.Size4K, addr.Size32K, addr.PageSize(1<<18))
	if err != nil {
		return stack{}, fmt.Errorf("perfbench: size classes: %w", err)
	}
	return stack{
		spec:      "pass-walk-random",
		top:       "walk",
		newPolicy: func() policy.Assigner { return policy.NewLadder(policy.DefaultLadderConfig(T, classes)) },
		tlbCfg:    tlb.Config{Entries: 32, Ways: 2, Index: tlb.IndexExact, Shifts: classes.Shifts()},
		topOpt:    func() core.Option { return core.WithWalkModel(walk.Default(classes)) },
	}, nil
}

// digest condenses every simulated counter of a pass into a short hash:
// the run-report counters plus the per-class TLB, policy, page-table,
// walk and working-set results.
func digest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s refs=%d instrs=%d\n%+v\n", res.Policy, res.Refs, res.Instrs, res.Counters)
	for _, t := range res.TLBs {
		fmt.Fprintf(h, "tlb %s %+v\n", t.Name, t.Stats)
	}
	if res.PolicyStats != nil {
		fmt.Fprintf(h, "policy %+v\n", *res.PolicyStats)
	}
	if res.LadderStats != nil {
		fmt.Fprintf(h, "ladder %+v\n", *res.LadderStats)
	}
	if res.PageTable != nil {
		fmt.Fprintf(h, "pt %+v\n", *res.PageTable)
	}
	if res.Walk != nil {
		fmt.Fprintf(h, "walk %+v\n", *res.Walk)
	}
	if res.WSS != nil {
		fmt.Fprintf(h, "wss %+v\n", *res.WSS)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestCheck verifies that every repetition simulates the same
// counters: against the pinned digest when one exists for the run's
// seed and length, otherwise against the first repetition.
type digestCheck struct {
	want string
}

func (c *digestCheck) check(res *core.Result) error {
	got := digest(res)
	if c.want == "" {
		c.want = got
		return nil
	}
	if got != c.want {
		return fmt.Errorf("counter digest %s, want %s", got, c.want)
	}
	return nil
}

// passBench runs one serial pass of a stack over the generated input:
// the pass-two and pass-walk-random workloads.
type passBench struct {
	cfg   config
	stack stack
	file  *trace.File
	dig   digestCheck
}

func newPassBench(cfg config, s stack) *passBench {
	return &passBench{cfg: cfg, stack: s, dig: digestCheck{want: pinned(cfg.workload, cfg.seed, cfg.refs)}}
}

func (b *passBench) setup(ctx context.Context) (time.Duration, error) {
	f, d, err := buildTimed(ctx, b.cfg, b.stack.spec, b.file)
	if b.file == nil {
		b.file = f
	}
	return d, err
}

func (b *passBench) rep(ctx context.Context) (uint64, time.Duration, func() error, error) {
	start := time.Now()
	sim, err := b.stack.full()
	if err != nil {
		return 0, 0, nil, err
	}
	res, err := sim.Run(ctx, b.file.Reader())
	d := time.Since(start)
	if err != nil {
		return 0, 0, nil, err
	}
	return res.Refs, d, func() error {
		// Holding the simulator here keeps its state in heap_mb.
		runtime.KeepAlive(sim)
		return b.checkPass(res)
	}, nil
}

func (b *passBench) checkPass(res *core.Result) error {
	if res.Refs != b.file.Refs() {
		return fmt.Errorf("simulated %d references, input has %d", res.Refs, b.file.Refs())
	}
	return b.dig.check(res)
}

// buildTimed builds a pass workload's input and times the build. A
// rebuild (prev != nil) must encode the same number of references into
// the same number of bytes as the first build.
func buildTimed(ctx context.Context, cfg config, specName string, prev *trace.File) (*trace.File, time.Duration, error) {
	spec, err := loadSpec(specName, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	f, err := buildInput(ctx, specName, spec, cfg.refs, cfg.corrupt)
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if prev != nil && (f.Refs() != prev.Refs() || f.Size() != prev.Size()) {
		return nil, 0, fmt.Errorf("perfbench: rebuilt %s input has %d refs in %d bytes, first build %d in %d",
			specName, f.Refs(), f.Size(), prev.Refs(), prev.Size())
	}
	return f, d, nil
}

// shardBench runs pass-two's configuration and input through
// engine.RunSharded: two shards on a two-worker engine, each later shard
// warming up on the policy window before its section.
type shardBench struct {
	cfg    config
	stack  stack
	plan   engine.ShardPlan
	file   *trace.File
	serial *core.Result // pass-two over the same input, the control
	dig    digestCheck
}

const shards = 2

func newShardBench(cfg config) *shardBench {
	T := windowFor(cfg.refs)
	return &shardBench{
		cfg:   cfg,
		stack: twoStack(T),
		// RunSharded treats a zero Warmup as no warm-up, so the
		// automatic length is spelled out.
		plan: engine.ShardPlan{Shards: shards, Warmup: engine.AutoWarmup(T)},
		dig:  digestCheck{want: pinned(cfg.workload, cfg.seed, cfg.refs)},
	}
}

// setup builds the input and, the first time, runs the serial control
// pass over it (not part of the set-up time).
func (b *shardBench) setup(ctx context.Context) (time.Duration, error) {
	f, d, err := buildTimed(ctx, b.cfg, b.stack.spec, b.file)
	if err != nil || b.file != nil {
		return d, err
	}
	b.file = f
	return d, b.runSerial(ctx)
}

func (b *shardBench) runSerial(ctx context.Context) error {
	sim, err := b.stack.full()
	if err != nil {
		return err
	}
	if b.serial, err = sim.Run(ctx, b.file.Reader()); err != nil {
		return fmt.Errorf("perfbench: serial control pass: %w", err)
	}
	return nil
}

func (b *shardBench) rep(ctx context.Context) (uint64, time.Duration, func() error, error) {
	start := time.Now()
	res, err := engine.RunSharded(engine.New(shards), ctx, b.file, 0, b.plan, b.cfg.workload, b.stack.full)
	d := time.Since(start)
	if err != nil {
		return 0, 0, nil, err
	}
	return res.Refs, d, func() error { return b.checkMerged(res) }, nil
}

// checkMerged holds a merged result to the serial control: stream
// totals exactly, first-TLB misses within the shard battery's bound,
// and every counter to the digest.
func (b *shardBench) checkMerged(res *core.Result) error {
	s := b.serial
	if res.Refs != s.Refs || res.Instrs != s.Instrs ||
		res.Counters.DecodedRefs != s.Counters.DecodedRefs ||
		res.Counters.DecodedBlocks != s.Counters.DecodedBlocks ||
		res.Counters.DecodedBytes != s.Counters.DecodedBytes {
		return fmt.Errorf("stream totals refs=%d instrs=%d decoded=%d/%d/%d, serial has %d %d %d/%d/%d",
			res.Refs, res.Instrs, res.Counters.DecodedRefs, res.Counters.DecodedBlocks, res.Counters.DecodedBytes,
			s.Refs, s.Instrs, s.Counters.DecodedRefs, s.Counters.DecodedBlocks, s.Counters.DecodedBytes)
	}
	got, want := res.TLBs[0].Stats.Misses(), s.TLBs[0].Stats.Misses()
	if e := relErr(got, want); e > missBound {
		return fmt.Errorf("first-TLB misses %d vs serial %d: error %.4f exceeds %.2f", got, want, e, missBound)
	}
	return b.dig.check(res)
}

// relErr is |got-want| / want; matching zeros are exact and a
// disagreement about zero is maximal.
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

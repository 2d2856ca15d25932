// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (Sections 4 and 5), plus ablations
// over the design choices DESIGN.md calls out. Each experiment knows its
// workloads, simulator configurations and output format; cmd/paper and
// the repository-level benchmarks are thin wrappers over this package.
//
// All experiments take an Options with a Scale knob: trace lengths and
// working-set windows shrink proportionally, so the same code serves
// quick smoke runs (scale 0.01), benchmarks, and full-fidelity
// reproductions (scale 1).
//
// Experiments do not simulate directly: they submit work units to an
// engine.Engine (see Options.Engine) and assemble rows from the
// returned futures in a fixed order. The engine bounds parallelism and
// memoizes identical (workload, refs, policy, TLB-config) passes, so a
// `paper all` run shares passes between experiments — and a Runner over
// several experiments produces output byte-identical to a sequential
// run at any parallelism level.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"twopage/internal/engine"
	"twopage/internal/obs"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

// Options parameterizes an experiment run. Construct with NewOptions
// (or pass Opt values to NewRunner); the zero value works but must go
// through normalize before use, which Run and the Runner do for you.
type Options struct {
	// Scale multiplies every workload's trace length (and, indirectly,
	// its working-set window T). 1.0 is the full default; 0 means 1.0.
	Scale float64
	// Workloads restricts the run to these program names; nil means the
	// experiment's default set (usually all twelve).
	Workloads []string
	// Out receives the rendered table; nil means os.Stdout.
	Out io.Writer
	// CSV renders comma-separated values instead of an aligned table.
	CSV bool
	// JSON renders the table as a JSON document (title, columns, rows)
	// instead of an aligned table. Takes precedence over CSV.
	JSON bool
	// Parallelism bounds concurrent simulation passes when Engine is
	// nil; <= 0 selects runtime.NumCPU(). Ignored when Engine is set.
	Parallelism int
	// Progress, when non-nil, receives one engine.Event per completed
	// work unit. It runs on worker goroutines and must be safe for
	// concurrent use. Ignored when Engine is set (attach an observer to
	// the engine instead).
	Progress func(engine.Event)
	// Engine executes and memoizes the simulation passes. Nil means a
	// private engine built from Parallelism and Progress; sharing one
	// Engine across experiments (as the Runner does) deduplicates
	// passes between them.
	Engine *engine.Engine
	// Collector, when non-nil, receives each executed unit's run-report
	// counters (internal/obs). Ignored when Engine is set (attach the
	// collector to the engine instead).
	Collector *obs.Collector
	// Shards splits each file-backed workload's trace into this many
	// sections simulated in parallel and merged (engine.WithSharding);
	// <= 1 keeps the serial, golden-pinned pass. Generated workloads
	// always run serial. Ignored when Engine is set.
	Shards int
	// Warmup is the per-shard warm-up length in references; 0 selects
	// engine.AutoWarmup of the policy window. Ignored unless Shards > 1.
	Warmup uint64
	// WalkPWC overrides the page-walk-cache capacity of the walkcpi
	// experiment family: 0 keeps walk.DefaultPWCEntries, a negative
	// value disables the PWCs. Flat-penalty experiments ignore it.
	WalkPWC int
	// WalkMemBytes overrides the walk model's memory-side cache size:
	// 0 keeps walk.DefaultMemBytes, negative disables the cache.
	WalkMemBytes int
}

// Opt mutates an Options (the functional-options constructor form).
type Opt func(*Options)

// WithScale sets the trace-length multiplier.
func WithScale(scale float64) Opt { return func(o *Options) { o.Scale = scale } }

// WithWorkloads restricts the run to the named programs.
func WithWorkloads(names ...string) Opt {
	return func(o *Options) { o.Workloads = append([]string(nil), names...) }
}

// WithOut directs rendered tables to w.
func WithOut(w io.Writer) Opt { return func(o *Options) { o.Out = w } }

// WithCSV toggles comma-separated output.
func WithCSV(csv bool) Opt { return func(o *Options) { o.CSV = csv } }

// WithJSON toggles JSON output.
func WithJSON(js bool) Opt { return func(o *Options) { o.JSON = js } }

// WithParallelism bounds concurrent simulation passes; <= 0 selects
// runtime.NumCPU().
func WithParallelism(n int) Opt { return func(o *Options) { o.Parallelism = n } }

// WithProgress registers a per-unit progress callback.
func WithProgress(fn func(engine.Event)) Opt { return func(o *Options) { o.Progress = fn } }

// WithEngine shares an existing engine (its parallelism and observer
// win over WithParallelism/WithProgress).
func WithEngine(e *engine.Engine) Opt { return func(o *Options) { o.Engine = e } }

// WithCollector attaches a run-report collector to the private engine
// normalize builds (a no-op when WithEngine supplies one).
func WithCollector(c *obs.Collector) Opt { return func(o *Options) { o.Collector = c } }

// WithShards splits file-backed traces into n sections simulated in
// parallel and merged; n <= 1 keeps the serial pass. warmup is the
// per-shard warm-up length (0 = auto from the policy window).
func WithShards(n int, warmup uint64) Opt {
	return func(o *Options) { o.Shards, o.Warmup = n, warmup }
}

// WithWalkParams overrides the walkcpi family's walk model: pwc is the
// page-walk-cache capacity and memBytes the memory-side cache size
// (0 keeps the walk package defaults, negative disables the component).
func WithWalkParams(pwc, memBytes int) Opt {
	return func(o *Options) { o.WalkPWC, o.WalkMemBytes = pwc, memBytes }
}

// NewOptions builds a normalized Options from functional options.
func NewOptions(opts ...Opt) *Options {
	o := &Options{}
	for _, fn := range opts {
		fn(o)
	}
	o.normalize()
	return o
}

// normalize fills defaults in place. It is idempotent; every entry
// point (NewRunner, NewOptions) funnels through it, so experiment
// code can rely on Scale, Out and Engine being set.
func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Engine == nil {
		var eopts []engine.Option
		if o.Progress != nil {
			eopts = append(eopts, engine.WithObserver(o.Progress))
		}
		if o.Collector != nil {
			eopts = append(eopts, engine.WithCollector(o.Collector))
		}
		if o.Shards > 1 {
			eopts = append(eopts, engine.WithSharding(engine.ShardPlan{Shards: o.Shards, Warmup: o.Warmup}))
		}
		o.Engine = engine.New(o.Parallelism, eopts...)
	}
}

// specs resolves the option's workload set (default all) to specs.
func (o *Options) specs() ([]workload.Spec, error) {
	if len(o.Workloads) == 0 {
		return workload.All(), nil
	}
	var out []workload.Spec
	for _, name := range o.Workloads {
		s, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// render writes the table in the option's format.
func (o *Options) render(tbl *tableio.Table, w io.Writer) error {
	switch {
	case o.JSON:
		return tbl.JSON(w)
	case o.CSV:
		return tbl.CSV(w)
	default:
		_, err := tbl.WriteTo(w)
		return err
	}
}

// refsFor scales a workload's default trace length, with a floor that
// keeps windows meaningful.
func refsFor(s workload.Spec, scale float64) uint64 {
	r := uint64(float64(s.DefaultRefs) * scale)
	if r < 40_000 {
		r = 40_000
	}
	return r
}

// windowFor derives the working-set / policy window T from the trace
// length. The paper pairs ~10^8-10^9-reference traces with T = 10M,
// i.e. T is a few percent to ~10% of the trace; we use refs/8.
func windowFor(refs uint64) int {
	t := refs / 8
	if t < 5_000 {
		t = 5_000
	}
	return int(t)
}

// twoWayCfg describes an n-entry 2-way set-associative TLB with the
// given index scheme — the organization of Figure 5.2 and Table 5.1 —
// in the declarative form the engine memoizes on.
func twoWayCfg(entries int, ix tlb.IndexScheme) tlb.Config {
	return tlb.Config{Entries: entries, Ways: 2, Index: ix}
}

// twoWay builds the same organization as a live TLB, for experiments
// that drive simulators directly inside opaque engine tasks.
func twoWay(entries int, ix tlb.IndexScheme) tlb.TLB {
	return tlb.MustNew(twoWayCfg(entries, ix))
}

// faCfg is a fully associative TLB of the given size in declarative form.
func faCfg(entries int) tlb.Config {
	return tlb.Config{Entries: entries, Ways: entries}
}

// Experiment couples an identifier with a runner.
type Experiment struct {
	// ID is the command-line name, e.g. "table3.1".
	ID string
	// Title is the table heading.
	Title string
	// About summarizes what the paper artifact shows.
	About string
	// Run executes the experiment and returns the rendered table. The
	// Options must be normalized (NewOptions, or call normalize); Run
	// submits work units to o.Engine and honours ctx cancellation.
	Run func(ctx context.Context, o *Options) (*tableio.Table, error)
}

var registry = []Experiment{
	{
		ID:    "table3.1",
		Title: "Table 3.1: Workloads",
		About: "trace length, references per instruction and average 4KB working-set size per program",
		Run:   Table31,
	},
	{
		ID:    "fig4.1",
		Title: "Figure 4.1: WS_Normalized vs single page size",
		About: "normalized working-set growth for 8KB..64KB pages (paper: ~1.67x at 32KB, ~2.03x at 64KB on average)",
		Run:   Fig41,
	},
	{
		ID:    "fig4.2",
		Title: "Figure 4.2: WS_Normalized, single sizes vs two page sizes",
		About: "the two-page scheme's working-set cost (paper: 1.01-1.22, average ~1.1) against 8/16/32KB single sizes",
		Run:   Fig42,
	},
	{
		ID:    "fig5.1",
		Title: "Figure 5.1: CPI_TLB, 16-entry fully associative TLB",
		About: "32KB pages cut CPI_TLB ~8x; the two-page scheme lands close to 32KB despite the 25% penalty",
		Run:   Fig51,
	},
	{
		ID:    "fig5.2",
		Title: "Figure 5.2: CPI_TLB, 16/32-entry two-way set-associative TLBs",
		About: "set-associative results are mixed: most programs win with two page sizes, espresso/worm degrade, tomcatv thrashes",
		Run:   Fig52,
	},
	{
		ID:    "table5.1",
		Title: "Table 5.1: Comparison of indexing schemes",
		About: "4KB vs 4KB-with-large-index vs two-page large-index vs two-page exact-index, 16- and 32-entry two-way",
		Run:   Table51,
	},
	{
		ID:    "deltamp",
		Title: "Critical miss-penalty increase Δmp(4KB/32KB)",
		About: "how much extra miss penalty the two-page scheme can absorb and still beat 4KB (paper: 30%-1200% for the winners)",
		Run:   DeltaMP,
	},
	{
		ID:    "sensitivity",
		Title: "Section 4: sensitivity of WS_Normalized to T",
		About: "the working-set trends are insensitive to halving/doubling T (paper varies T over 10/25/50M)",
		Run:   SensitivityT,
	},
	{
		ID:    "indexing",
		Title: "Section 5.2.1: large-page index with no large pages allocated",
		About: "hardware indexed by the large page number degrades badly when software never allocates large pages",
		Run:   Indexing,
	},
	{
		ID:    "threshold",
		Title: "Ablation: promotion threshold sweep",
		About: "CPI_TLB, working-set cost and large-page usage as the promote threshold varies over 1..8 blocks",
		Run:   ThresholdSweep,
	},
	{
		ID:    "combos",
		Title: "Ablation: 4KB/16KB vs 4KB/32KB vs 4KB/64KB",
		About: "the page-size combinations the authors measured but could not print (Section 3.2)",
		Run:   Combos,
	},
	{
		ID:    "split",
		Title: "Ablation: split vs unified two-page TLBs",
		About: "Section 2.2 option (c): separate per-size TLBs against a unified exact-index TLB and fully associative",
		Run:   SplitVsUnified,
	},
	{
		ID:    "replacement",
		Title: "Ablation: replacement policy (LRU/FIFO/random)",
		About: "the paper assumes LRU; how much replacement matters at these tiny TLB sizes",
		Run:   ReplacementSweep,
	},
	{
		ID:    "multiprog",
		Title: "Extension: multiprogramming (ASID vs flush)",
		About: "the workload class the paper could not trace: round-robin process mixes, with and without TLB flushing on context switch",
		Run:   Multiprog,
	},
	{
		ID:    "misshandling",
		Title: "Extension: miss-handler organizations",
		About: "two-level walk vs hashed tables (both probe orders) vs a software translation cache, per Section 2.3's sketch",
		Run:   MissHandling,
	},
	{
		ID:    "sharedmem",
		Title: "Extension: multiprogrammed MMU under shared memory",
		About: "four processes share physical memory through the full MMU: the paper's two missing dimensions combined",
		Run:   SharedMem,
	},
	{
		ID:    "pressure",
		Title: "Extension: MMU under memory pressure",
		About: "full demand-paging MMU: faults, evictions, promotion copies and fragmentation as memory shrinks",
		Run:   Pressure,
	},
	{
		ID:    "phases",
		Title: "Extension: phased program behaviour",
		About: "why the policy is dynamic: demotion reclaims large mappings after a dense phase ends; promote-forever policies cannot",
		Run:   Phases,
	},
	{
		ID:    "designspace",
		Title: "Extension: one-pass design-space sweep",
		About: "Section 3.3's methodology reproduced: ~96 TLB configurations from one stack-simulation pass, time-compared with a direct simulation",
		Run:   DesignSpace,
	},
	{
		ID:    "accesscost",
		Title: "Extension: exact-index access strategies",
		About: "Section 2.2 options priced: parallel probe vs sequential reprobe vs split TLBs vs a two-level hierarchy",
		Run:   AccessCost,
	},
	{
		ID:    "policies",
		Title: "Extension: page-size assignment policies",
		About: "the paper's windowed policy vs a profile-derived static oracle vs a promote-once cumulative policy",
		Run:   Policies,
	},
	{
		ID:    "diskio",
		Title: "Extension: disk paging amortization",
		About: "Section 1's third large-page advantage: positioning cost amortized over bigger transfers, measured end to end",
		Run:   DiskIO,
	},
	{
		ID:    "protect",
		Title: "Extension: protection granularity",
		About: "Section 1's cost: sub-page write protection causes spurious faults on large pages; a promotion veto is the OS fix",
		Run:   Protect,
	},
	{
		ID:    "cachetlb",
		Title: "Extension: L1 tagging vs TLB pressure",
		About: "Section 1's argument quantified: physically tagged caches put the TLB on every access, virtually tagged only on L1 misses",
		Run:   CacheTLB,
	},
	{
		ID:    "conflict",
		Title: "Extension: victim buffers and prefetching",
		About: "conflict-mitigation hardware for two-page set-associative TLBs (tomcatv's cure without full associativity)",
		Run:   Conflict,
	},
	{
		ID:    "tlbsweep",
		Title: "Extension: TLB size sweep 8..128 entries",
		About: "all-associativity pass quantifying why the paper capped its TLBs below 64 entries",
		Run:   TLBSweep,
	},
	{
		ID:    "ladder3",
		Title: "Extension: three-size promotion ladder",
		About: "the Section 3.4 policy generalized to 4KB/32KB/256KB: threshold sweep per level against a NAPOT-contiguity alternative",
		Run:   Ladder3,
	},
	{
		ID:    "nindex",
		Title: "Extension: TLB indexing with three page sizes",
		About: "Section 2.2's indexing dilemma with N sizes: per-class index bits vs exact reprobe vs per-class split TLBs",
		Run:   NIndex,
	},
	{
		ID:    "walkcpi",
		Title: "Extension: modeled page walks — CPI_TLB as an emergent quantity",
		About: "the flat 25-cycle assumption vs a modeled radix walk with MMU walk caches and a memory-side cache; cycles per walk emerge from per-level counters",
		Run:   WalkCPI,
	},
	{
		ID:    "walkdeltamp",
		Title: "Extension: Δmp recomputed against the modeled walk penalty",
		About: "the Section 5 critical-miss-penalty headroom with the measured cycles-per-walk in place of the assumed 25% handler growth",
		Run:   WalkDeltaMP,
	},
}

// All returns the experiments in presentation order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// Get finds an experiment by ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Runner executes experiments against one shared engine, so passes
// common to several experiments are simulated once. Tables are always
// flushed to the output in request order, regardless of which
// experiment finishes first — output is byte-identical to a sequential
// run at any parallelism.
type Runner struct {
	opts *Options
}

// NewRunner builds a Runner from functional options.
func NewRunner(opts ...Opt) *Runner {
	return &Runner{opts: NewOptions(opts...)}
}

// Options exposes the runner's normalized options (shared, not a copy).
func (r *Runner) Options() *Options { return r.opts }

// Run executes one experiment and writes its table to the configured
// output.
func (r *Runner) Run(ctx context.Context, id string) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	tbl, err := e.Run(ctx, r.opts)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	return r.opts.render(tbl, r.opts.Out)
}

// RunAll executes the named experiments (all of them when ids is empty)
// concurrently over the shared engine and flushes their tables in
// request order. Each experiment runs on its own coordinator goroutine;
// the engine's pool bounds the actual simulation work. The first error
// (in request order) is returned, and tables after it are not written —
// matching what a sequential run would have printed.
func (r *Runner) RunAll(ctx context.Context, ids ...string) error {
	exps := make([]Experiment, 0, len(registry))
	if len(ids) == 0 {
		exps = append(exps, registry...)
	} else {
		for _, id := range ids {
			e, err := Get(id)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	type outcome struct {
		buf bytes.Buffer
		err error
	}
	outs := make([]outcome, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			tbl, err := e.Run(ctx, r.opts)
			if err != nil {
				outs[i].err = fmt.Errorf("experiments: %s: %w", e.ID, err)
				return
			}
			outs[i].err = r.opts.render(tbl, &outs[i].buf)
		}(i, e)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].err != nil {
			return outs[i].err
		}
		if _, err := outs[i].buf.WriteTo(r.opts.Out); err != nil {
			return err
		}
	}
	return nil
}

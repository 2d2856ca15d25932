// Command tlbsim runs a single TLB simulation over a synthetic workload
// or a trace file and prints the paper's metrics.
//
// Examples:
//
//	tlbsim -workload matrix300 -entries 16                 # fully associative
//	tlbsim -workload tomcatv -entries 32 -ways 2 -index large
//	tlbsim -workload li -two -T 500000 -entries 16 -ways 2 -index exact
//	tlbsim -workload li -two -walk                         # modeled page walks
//	tlbsim -workload li -two -walk -walkpwc -1 -walkmem -1 # walk, caches off
//	tlbsim -workload li -sizes 4096,32768,262144 -ladder   # three-size ladder
//	tlbsim -workload li -sizes 4096,32768,262144 -ladder -index class1
//	tlbsim -trace foo.trc -pagesize 8192        # format sniffed (v2/binary/text)
//	tlbsim -workload li -stats -                # JSON run report on stderr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/profiling"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/walk"
	"twopage/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single os.Exit, so the deferred
// profile flush runs on every exit path (the old fatal() helper called
// os.Exit directly and truncated -cpuprofile output on errors).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("tlbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "", "synthetic workload name (see -listworkloads)")
		specF    = fs.String("spec", "", "custom workload spec file (see workload.Parse)")
		refs     = fs.Uint64("refs", 0, "trace length (0 = workload default)")
		traceF   = fs.String("trace", "", "trace file to simulate instead of a workload")
		format   = fs.String("format", "auto", "trace file format: auto, v2, binary, or text")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		statsF   = fs.String("stats", "", "write a JSON run report to this file (\"-\" = stderr)")
		entries  = fs.Int("entries", 16, "TLB entries")
		ways     = fs.Int("ways", 0, "associativity (0 = fully associative)")
		index    = fs.String("index", "exact", "set index scheme: small, large, exact, or classK (K = size class)")
		pageSize = fs.Uint64("pagesize", 4096, "single page size in bytes")
		two      = fs.Bool("two", false, "use the dynamic 4KB/32KB policy instead of a single size")
		sizes    = fs.String("sizes", "", "comma-separated page-size hierarchy in bytes, e.g. 4096,32768,262144")
		ladder   = fs.Bool("ladder", false, "use the N-level promotion ladder over the -sizes hierarchy")
		window   = fs.Int("T", 0, "two-page policy window in refs (0 = refs/8)")
		thresh   = fs.Int("threshold", 4, "two-page promotion threshold (blocks of 8)")
		wss      = fs.Bool("wss", false, "also report the two-page working-set size")
		pt       = fs.Bool("pt", false, "model a software page table: charge modelled walk cycles on first-TLB misses (needs -two or -ladder)")
		walkF    = fs.Bool("walk", false, "model multi-level page walks with MMU walk caches: CPI_TLB becomes emergent instead of MPI x penalty (needs -two or -ladder; implies -pt)")
		walkPWC  = fs.Int("walkpwc", 0, "page-walk-cache entries per level (0 = default, negative = disable; needs -walk)")
		walkMem  = fs.Int("walkmem", 0, "memory-side cache bytes for walk loads (0 = default, negative = disable; needs -walk)")
		shards   = fs.Int("shards", 1, "split a v2 trace into this many sections simulated in parallel and merged (1 = exact serial pass; needs -trace)")
		warmup   = fs.Uint64("warmup", 0, "per-shard warm-up references replayed before measuring (0 = auto from the policy window; needs -shards > 1)")
		list     = fs.Bool("listworkloads", false, "list synthetic workloads and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *warmup > 0 && *shards <= 1 {
		// The serial pass has no warm-up phase; silently ignoring the
		// flag would report cold-state metrics as if they were warm.
		fmt.Fprintln(stderr, "tlbsim: -warmup requires -shards > 1 (the serial pass replays no warm-up)")
		return 2
	}

	if *list {
		for _, s := range workload.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", s.Name, s.Description)
		}
		return 0
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var classes addr.SizeClasses
	if *sizes != "" {
		var ps []addr.PageSize
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fmt.Fprintf(stderr, "tlbsim: bad -sizes entry %q: %v\n", part, err)
				return 1
			}
			ps = append(ps, addr.PageSize(v))
		}
		var err error
		if classes, err = addr.NewSizeClasses(ps...); err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			return 1
		}
	}

	ix, ok := map[string]tlb.IndexScheme{
		"small": tlb.IndexSmall, "large": tlb.IndexLarge, "exact": tlb.IndexExact,
	}[*index]
	if !ok {
		k, err := strconv.Atoi(strings.TrimPrefix(*index, "class"))
		if !strings.HasPrefix(*index, "class") || err != nil ||
			k < 0 || k >= addr.MaxSizeClasses {
			fmt.Fprintf(stderr, "tlbsim: unknown index scheme %q\n", *index)
			return 1
		}
		ix = tlb.IndexByClass(k)
	}
	w := *ways
	if w == 0 {
		w = *entries
	}
	tlbCfg := tlb.Config{Entries: *entries, Ways: w, Index: ix}
	if classes.N() > 0 {
		tlbCfg.Shifts = classes.Shifts()
	}
	if _, err := tlb.New(tlbCfg); err != nil {
		fmt.Fprintf(stderr, "tlbsim: %v\n", err)
		return 1
	}

	var src trace.Reader
	var srcName string
	var nRefs uint64
	switch {
	case *traceF != "":
		r, closer, err := trace.OpenPath(*traceF, *format)
		if err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			return 1
		}
		defer closer.Close()
		src, srcName = r, *traceF
		nRefs = 1 << 22 // only used to derive a default window
		if mr, ok := r.(*trace.MapReader); ok {
			nRefs = mr.File().Refs()
		}
	case *specF != "":
		text, err := os.ReadFile(*specF)
		if err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			return 1
		}
		nRefs = *refs
		if nRefs == 0 {
			nRefs = 4_000_000
		}
		src, err = workload.Parse(*specF, nRefs, string(text))
		if err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			return 1
		}
		srcName = *specF
	case *wl != "":
		spec, err := workload.Get(*wl)
		if err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			return 1
		}
		nRefs = *refs
		if nRefs == 0 {
			nRefs = spec.DefaultRefs
		}
		src, srcName = spec.New(nRefs), *wl
	default:
		fmt.Fprintln(stderr, "tlbsim: need -workload, -spec, or -trace (try -listworkloads)")
		return 1
	}

	// newPolicy builds a fresh policy per simulator: sharded runs give
	// every section its own instance, so construction must be repeatable.
	var newPolicy func() policy.Assigner
	polT := 0 // policy window, for the auto warm-up length
	switch {
	case *ladder:
		if classes.N() < 2 {
			fmt.Fprintln(stderr, "tlbsim: -ladder needs -sizes with at least two page sizes")
			return 1
		}
		if classes.Shift(0) != addr.BlockShift || classes.TopShift() > 24 {
			fmt.Fprintf(stderr, "tlbsim: -ladder needs a 4096-byte base class and a top size of at most %d bytes\n", 1<<24)
			return 1
		}
		if *wss {
			fmt.Fprintln(stderr, "tlbsim: -wss supports only the two-size policy")
			return 1
		}
		polT = *window
		if polT == 0 {
			polT = int(nRefs / 8)
		}
		cfg := policy.DefaultLadderConfig(polT, classes)
		newPolicy = func() policy.Assigner { return policy.NewLadder(cfg) }
	case *two:
		polT = *window
		if polT == 0 {
			polT = int(nRefs / 8)
		}
		cfg := policy.TwoSizeConfig{T: polT, Threshold: *thresh, Demote: true, LargeShift: addr.Shift32K}
		newPolicy = func() policy.Assigner { return policy.NewTwoSize(cfg) }
	default:
		if *wss {
			fmt.Fprintln(stderr, "tlbsim: -wss requires -two (use wsssim for single sizes)")
			return 1
		}
		newPolicy = func() policy.Assigner {
			return policy.NewSingle(addr.MustPow2(addr.PageSize(*pageSize)))
		}
	}
	if *pt && !*two && !*ladder {
		fmt.Fprintln(stderr, "tlbsim: -pt needs a multi-size policy (-two or -ladder)")
		return 1
	}
	if *walkF && !*two && !*ladder {
		fmt.Fprintln(stderr, "tlbsim: -walk needs a multi-size policy (-two or -ladder)")
		return 1
	}
	wcfg := walk.Config{
		// Classes stay zero: core derives them from the policy.
		PWCEntries: walk.DefaultPWCEntries,
		MemBytes:   walk.DefaultMemBytes,
		MemWays:    walk.DefaultMemWays,
		HitCycles:  walk.DefaultHitCycles,
		MissCycles: walk.DefaultMissCycles,
	}
	if *walkPWC < 0 {
		wcfg.PWCEntries = 0
	} else if *walkPWC > 0 {
		wcfg.PWCEntries = *walkPWC
	}
	if *walkMem < 0 {
		wcfg.MemBytes = 0
	} else if *walkMem > 0 {
		wcfg.MemBytes = *walkMem
	}

	build := func() (*core.Simulator, error) {
		t, err := tlb.New(tlbCfg)
		if err != nil {
			return nil, err
		}
		var opts []core.Option
		if *wss && *two {
			opts = append(opts, core.WithWSS())
		}
		if *pt {
			opts = append(opts, core.WithPageTable())
		}
		if *walkF {
			opts = append(opts, core.WithWalkModel(wcfg))
		}
		return core.NewSimulator(newPolicy(), []tlb.TLB{t}, opts...), nil
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "tlbsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	start := time.Now()
	var res *core.Result
	if *shards > 1 {
		mr, ok := src.(*trace.MapReader)
		if !ok {
			fmt.Fprintln(stderr, "tlbsim: -shards needs a v2 -trace file (sections require random access)")
			return 1
		}
		plan := engine.ShardPlan{Shards: *shards, Warmup: *warmup}
		if plan.Warmup == 0 {
			plan.Warmup = engine.AutoWarmup(polT)
		}
		eng := engine.New(*shards)
		res, err = engine.RunSharded(eng, ctx, mr.File(), *refs, plan, "tlbsim", build)
	} else {
		var sim *core.Simulator
		if sim, err = build(); err == nil {
			res, err = sim.Run(ctx, src)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintln(stderr, "tlbsim: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "tlbsim: %v\n", err)
		return 1
	}

	tr := res.TLBs[0]
	fmt.Fprintf(stdout, "policy:      %s\n", res.Policy)
	fmt.Fprintf(stdout, "tlb:         %s\n", tr.Name)
	fmt.Fprintf(stdout, "refs:        %d (instrs %d, RPI %.3f)\n", res.Refs, res.Instrs, res.RPI)
	fmt.Fprintf(stdout, "misses:      %d (small %d, large %d)\n",
		tr.Stats.Misses(), tr.Stats.MissesByClass[0], tr.Stats.Misses()-tr.Stats.MissesByClass[0])
	if tr.Stats.Classes > 2 {
		for k := 0; k < tr.Stats.Classes; k++ {
			fmt.Fprintf(stdout, "  class %d (%s): hits %d, misses %d\n",
				k, classes.Size(k), tr.Stats.HitsByClass[k], tr.Stats.MissesByClass[k])
		}
	}
	fmt.Fprintf(stdout, "miss ratio:  %.6f\n", tr.MissRatio)
	fmt.Fprintf(stdout, "MPI:         %.6f\n", tr.MPI)
	if res.Walk != nil {
		fmt.Fprintf(stdout, "CPI_TLB:     %.4f  (emergent penalty %.1f cycles/walk)\n", tr.CPITLB, tr.MissPenalty)
	} else {
		fmt.Fprintf(stdout, "CPI_TLB:     %.4f  (penalty %.0f cycles)\n", tr.CPITLB, tr.MissPenalty)
	}
	fmt.Fprintf(stdout, "reprobes:    %d (sequential exact-index cost model)\n", tr.Stats.Reprobes())
	if res.PageTable != nil {
		fmt.Fprintf(stdout, "pt walks:    %d (faults %d, %.0f walk cycles)\n",
			res.PageTable.Lookups, res.PageTable.Misses, res.PTWalkCycles)
	}
	if ws := res.Walk; ws != nil {
		fmt.Fprintf(stdout, "walk model:  %d walks, %d loads, %.1f cycles/walk\n",
			ws.Walks, ws.Loads(), ws.CyclesPerWalk())
		fmt.Fprintf(stdout, "  PWC:       %d hits / %d misses (%.0f%% hit), %d flushes\n",
			ws.PWCHits(), ws.PWCMisses(), 100*ws.PWCHitRatio(), ws.PWCFlushes)
		fmt.Fprintf(stdout, "  mem cache: %d hits / %d misses (%.0f%% hit)\n",
			ws.MemHits, ws.MemMisses, 100*ws.MemHitRatio())
	}
	if res.PolicyStats != nil {
		ps := res.PolicyStats
		fmt.Fprintf(stdout, "promotions:  %d (demotions %d, large chunks now %d)\n",
			ps.Promotions, ps.Demotions, ps.LargeChunks)
		fmt.Fprintf(stdout, "large refs:  %.1f%%\n", 100*float64(ps.LargeRefs)/float64(ps.Refs))
	}
	if ls := res.LadderStats; ls != nil {
		for k := 1; k < classes.N(); k++ {
			fmt.Fprintf(stdout, "class %d (%s): refs %.1f%%, promotions %d, demotions %d, mapped now %d\n",
				k, classes.Size(k),
				100*float64(ls.RefsByClass[k])/float64(ls.Refs),
				ls.Promotions[k], ls.Demotions[k], ls.Mapped[k])
		}
	}
	if res.WSS != nil {
		fmt.Fprintf(stdout, "avg WSS:     %.0f bytes (%s scheme)\n", res.WSS.AvgBytes, res.WSS.Scheme)
	}

	if *statsF != "" {
		rep := obs.New("tlbsim")
		rep.Workloads = []string{srcName}
		rep.WallMS = time.Since(start).Milliseconds()
		rep.Totals = res.Counters
		rep.Passes = []obs.Pass{{Key: fmt.Sprintf("w=%s refs=%d", srcName, res.Refs), Counters: res.Counters}}
		if err := rep.Write(*statsF, stderr); err != nil {
			fmt.Fprintf(stderr, "tlbsim: %v\n", err)
			return 1
		}
	}
	return 0
}

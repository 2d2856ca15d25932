// Command tlbsim runs a single TLB simulation over a synthetic workload
// or a trace file and prints the paper's metrics. With -mem it also
// runs core's memory stage (demand paging, buddy allocation, clock
// replacement and promotion copies over a 4KB/32KB page table) and
// prints the whole translation path's cost. Every bad flag value or
// combination is a usage error (exit 2) reported before anything runs.
//
// Examples:
//
//	tlbsim -workload matrix300 -entries 16                 # fully associative
//	tlbsim -workload tomcatv -entries 32 -ways 2 -index large
//	tlbsim -workload li -two -T 500000 -entries 16 -ways 2 -index exact
//	tlbsim -workload li -two -walk                         # modeled page walks
//	tlbsim -workload li -two -walk -walkpwc -1 -walkmem -1 # walk, caches off
//	tlbsim -workload li -sizes 4096,32768,262144 -ladder   # three-size ladder
//	tlbsim -workload li -sizes 4096,32768,262144 -ladder -ways 2 -index class1
//	tlbsim -trace foo.trc -pagesize 8192        # v2, binary or text, by its magic
//	tlbsim -workload li -stats -                # JSON run report on stderr
//	tlbsim -workload matrix300 -mem 4M -two               # memory stage
//	tlbsim -workload li -mem 128K -two -disk              # faults priced by the disk model
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/disk"
	"twopage/internal/engine"
	"twopage/internal/obs"
	"twopage/internal/physmem"
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
		shards   = fs.Int("shards", 1, "split the trace into this many sections simulated in parallel and merged (1 = exact serial pass; needs -trace)")
		warmup   = fs.Uint64("warmup", 0, "per-shard warm-up references replayed before measuring (0 = auto from the policy window; needs -shards > 1)")
		mem      = fs.String("mem", "", "run the memory stage with this much physical memory, e.g. 512K, 4M (a multiple of 32KB; needs 4KB or 32KB pages; not with -pt, -walk or -shards > 1)")
		fault    = fs.Float64("faultcycles", 0, "cycles per page fault (0 = default 500; needs -mem)")
		useDisk  = fs.Bool("disk", false, "price faults with the 1992 positional disk model instead of -faultcycles (needs -mem)")
		list     = fs.Bool("listworkloads", false, "list synthetic workloads and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Every flag value is checked before anything is built: a bad one
	// is a usage error naming the flag, never a panic in a constructor
	// (or on a shard worker), never a silently substituted default, and
	// never a flag the configuration ignores.
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tlbsim: "+format+"\n", args...)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["workload"] && (*traceF != "" || *specF != ""):
		return usage("-workload does not combine with -trace or -spec")
	case set["spec"] && *traceF != "":
		return usage("-spec does not combine with -trace")
	case *two && *ladder:
		return usage("-two does not combine with -ladder (the ladder is the policy)")
	case *two && set["sizes"]:
		// The policy still maps 4KB/32KB pages; another hierarchy would
		// misfile them in the TLB.
		return usage("-sizes does not combine with -two (use -ladder for another hierarchy)")
	case set["threshold"] && !*two:
		return usage("-threshold needs -two (the ladder uses its default thresholds)")
	case set["T"] && !*two && !*ladder:
		return usage("-T needs -two or -ladder (a single page size has no window)")
	case set["pagesize"] && (*two || *ladder):
		return usage("-pagesize sets a single page size; it does not combine with -two or -ladder")
	case set["walkpwc"] && !*walkF:
		return usage("-walkpwc needs -walk")
	case set["walkmem"] && !*walkF:
		return usage("-walkmem needs -walk")
	case *window < 0:
		return usage("-T must be >= 0 (0 = refs/8), got %d", *window)
	case !addr.PageSize(*pageSize).Valid():
		return usage("-pagesize must be a power of two, got %d", *pageSize)
	case *shards < 1:
		return usage("-shards must be >= 1, got %d", *shards)
	case *shards > 1 && *traceF == "":
		// A generated workload has no sections to split.
		return usage("-shards > 1 needs -trace")
	case *warmup > 0 && *shards == 1:
		// The serial pass has no warm-up phase; silently ignoring the
		// flag would report cold-state metrics as if they were warm.
		return usage("-warmup requires -shards > 1 (the serial pass replays no warm-up)")
	case *mem == "" && *fault != 0:
		return usage("-faultcycles needs -mem")
	case *mem == "" && *useDisk:
		return usage("-disk needs -mem")
	case !(*fault >= 0) || math.IsInf(*fault, 1):
		return usage("-faultcycles must be a finite number >= 0, got %g", *fault)
	case *useDisk && *fault != 0:
		return usage("-disk prices faults with the disk model; it does not combine with -faultcycles")
	case *wss && (*ladder || !*two):
		return usage("-wss supports only the two-size policy (-two); use wsssim for single sizes")
	case *pt && !*two && !*ladder:
		return usage("-pt needs a multi-size policy (-two or -ladder)")
	case *walkF && !*two && !*ladder:
		return usage("-walk needs a multi-size policy (-two or -ladder)")
	}

	if *list {
		for _, s := range workload.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", s.Name, s.Description)
		}
		return 0
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	// fail reports err; an interrupt is a one-line notice, exit 130.
	fail := func(err error) int {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintln(stderr, "tlbsim: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "tlbsim: %v\n", err)
		return 1
	}

	var classes addr.SizeClasses
	if *sizes != "" {
		var ps []addr.PageSize
		for _, part := range strings.Split(*sizes, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return usage("bad -sizes entry %q: %v", part, err)
			}
			ps = append(ps, addr.PageSize(v))
		}
		var err error
		if classes, err = addr.NewSizeClasses(ps...); err != nil {
			return usage("-sizes %s: %v", *sizes, err)
		}
		if classes.N() < 2 {
			return usage("-sizes needs at least two page sizes, got %s", *sizes)
		}
	}
	if *ladder && classes.N() < 2 {
		return usage("-ladder needs -sizes with at least two page sizes")
	}

	ix, ok := map[string]tlb.IndexScheme{
		"small": tlb.IndexSmall, "large": tlb.IndexLarge, "exact": tlb.IndexExact,
	}[*index]
	if !ok {
		k, err := strconv.Atoi(strings.TrimPrefix(*index, "class"))
		if !strings.HasPrefix(*index, "class") || err != nil ||
			k < 0 || k >= addr.MaxSizeClasses {
			return usage("-index: unknown scheme %q (want small, large, exact or classK)", *index)
		}
		ix = tlb.IndexByClass(k)
	}
	geom, err := (tlb.Config{Entries: *entries, Ways: *ways}).Normalized()
	if err != nil {
		return usage("-entries %d -ways %d: %v", *entries, *ways, err)
	}
	if set["index"] && geom.Ways == geom.Entries {
		return usage("-index needs a set-associative TLB (-ways below -entries); a fully associative one has no set index")
	}
	tlbCfg := tlb.Config{Entries: *entries, Ways: *ways, Index: ix}
	if classes.N() > 0 {
		tlbCfg.Shifts = classes.Shifts()
	}
	if _, err := tlb.New(tlbCfg); err != nil {
		// The geometry and the hierarchy are valid, so the index is not.
		return usage("-index %s: %v", *index, err)
	}

	// The memory stage backs only 4KB and 32KB frames, walks its own
	// page table, and has no exact warm-up, so it cannot shard.
	var memory *core.Memory
	if *mem != "" {
		size, err := workload.ParseSize(*mem)
		if err == nil {
			err = physmem.CheckSize(addr.PageSize(size))
		}
		switch {
		case err != nil:
			return usage("-mem %s: %v", *mem, err)
		case *pt:
			return usage("-pt does not combine with -mem (the memory stage walks its own page table)")
		case *walkF:
			return usage("-walk does not combine with -mem (the memory stage walks its own page table)")
		case *shards > 1:
			return usage("-shards > 1 does not combine with -mem (a memory pass has no exact warm-up)")
		case *ladder && classes != addr.MustShiftClasses(addr.Shift4K, addr.Shift32K):
			return usage("-mem needs a -ladder over -sizes 4096,32768, got %s", classes)
		case !*ladder && !*two && addr.PageSize(*pageSize) != addr.Size4K && addr.PageSize(*pageSize) != addr.Size32K:
			return usage("-mem needs -pagesize 4096 or 32768, got %d", *pageSize)
		}
		memory = &core.Memory{Size: addr.PageSize(size), FaultCycles: *fault}
		if *useDisk {
			dm := disk.Default()
			memory.Disk = &dm
		}
	}

	var src trace.Reader
	var file *trace.File // the -trace input, which -shards splits into sections
	var srcName string
	var nRefs uint64
	switch {
	case *traceF != "":
		f, err := trace.OpenFile(ctx, *traceF)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		file, src, srcName, nRefs = f, f.Reader(), *traceF, f.Refs()
		if *refs > 0 {
			src, nRefs = trace.NewLimit(src, *refs), min(nRefs, *refs)
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
			return usage("-workload: %v", err)
		}
		nRefs = *refs
		if nRefs == 0 {
			nRefs = spec.DefaultRefs
		}
		src, srcName = spec.New(nRefs), *wl
	default:
		return usage("need -workload, -spec, or -trace (try -listworkloads)")
	}

	// newPolicy builds a fresh policy per simulator: sharded runs give
	// every section its own instance, so construction must be repeatable.
	var newPolicy func() policy.Assigner
	polT := 0 // policy window, for the auto warm-up length
	switch {
	case *ladder:
		polT = policyWindow(*window, nRefs)
		cfg := policy.DefaultLadderConfig(polT, classes)
		if err := cfg.Validate(); err != nil {
			return usage("-ladder: %v", err)
		}
		newPolicy = func() policy.Assigner { return policy.NewLadder(cfg) }
	case *two:
		polT = policyWindow(*window, nRefs)
		cfg := policy.TwoSizeConfig{T: polT, Threshold: *thresh, Demote: true, LargeShift: addr.Shift32K}
		if err := cfg.Validate(); err != nil {
			return usage("-T/-threshold: %v", err)
		}
		newPolicy = func() policy.Assigner { return policy.NewTwoSize(cfg) }
	default:
		newPolicy = func() policy.Assigner {
			return policy.NewSingle(addr.MustPow2(addr.PageSize(*pageSize)))
		}
	}
	// The classes stay zero: core derives them from the policy.
	wcfg := walk.Tuned(addr.SizeClasses{}, *walkPWC, *walkMem)

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
		if memory != nil {
			opts = append(opts, core.WithMemory(*memory))
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
		plan := engine.ShardPlan{Shards: *shards, Warmup: *warmup}
		if plan.Warmup == 0 {
			plan.Warmup = engine.AutoWarmup(polT)
		}
		eng := engine.New(*shards)
		res, err = engine.RunSharded(eng, ctx, file, *refs, plan, "tlbsim", build)
	} else {
		var sim *core.Simulator
		if sim, err = build(); err == nil {
			res, err = sim.Run(ctx, src)
		}
	}
	if err != nil {
		return fail(err)
	}

	tr := res.TLBs[0]
	fmt.Fprintf(stdout, "policy:      %s\n", res.Policy)
	fmt.Fprintf(stdout, "tlb:         %s\n", tr.Name)
	fmt.Fprintf(stdout, "refs:        %d (instrs %d, RPI %.3f)\n", res.Refs, res.Instrs, res.RPI())
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
	if ms, pt := res.Memory, res.PageTable; ms != nil {
		fmt.Fprintf(stdout, "walks:        %d (%d refills, %d faults)\n", pt.Lookups, pt.Lookups-pt.Misses, pt.Misses)
		fmt.Fprintf(stdout, "replacement:  %d evictions (%d large)\n", ms.Evictions, ms.EvictionsByClass[1])
		fmt.Fprintf(stdout, "promotion:    %d promotions, %d demotions, %.1f KB copied\n",
			pt.Promotions, pt.Demotions, float64(pt.CopiedBytes)/1024)
		fmt.Fprintf(stdout, "memory:       %d/%d frames free, %d large allocs, %d fragmentation-blocked\n",
			ms.FreeFrames, ms.TotalFrames, ms.Buddy.LargeAllocs, ms.Buddy.FailedLargeFragmented)
		if ms.IO.PageIns > 0 {
			fmt.Fprintf(stdout, "disk I/O:     %d page-ins, %.2f MB, %.0f ms\n",
				ms.IO.PageIns, float64(ms.IO.BytesIn)/(1<<20),
				ms.IO.IOCycles/(memory.Disk.CPUMHz*1e3))
		}
		fmt.Fprintf(stdout, "translation:  %.3f cycles/access (%.0f total)\n", res.CyclesPerRef(), ms.Cycles)
	} else if pt != nil {
		fmt.Fprintf(stdout, "pt walks:    %d (faults %d, %.0f walk cycles)\n",
			pt.Lookups, pt.Misses, res.PTWalkCycles)
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

// policyWindow is the -T flag's window: the flag when set, otherwise
// an eighth of the trace, at least one reference.
func policyWindow(flagT int, refs uint64) int {
	if flagT > 0 {
		return flagT
	}
	return int(max(refs/8, 1))
}

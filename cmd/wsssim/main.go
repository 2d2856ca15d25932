// Command wsssim computes average working-set sizes (the paper's
// Section 4 metric) over a synthetic workload or trace file, for any set
// of single page sizes and optionally the dynamic 4KB/32KB scheme.
//
// Examples:
//
//	wsssim -workload li                         # 4K..64K + two-page
//	wsssim -workload tomcatv -T 2000000 -sizes 4096,32768
//	wsssim -trace foo.trc -shards 2             # v2, binary or text, by its magic
//	wsssim -workload li -stats -                # JSON run report on stderr
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
	"twopage/internal/metrics"
	"twopage/internal/obs"
	"twopage/internal/policy"
	"twopage/internal/profiling"
	"twopage/internal/trace"
	"twopage/internal/workload"
	"twopage/internal/wss"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single os.Exit, so the deferred
// profile flush runs on every exit path (the old fatal() helper called
// os.Exit directly and truncated -cpuprofile output on errors).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wsssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "synthetic workload name")
		refs    = fs.Uint64("refs", 0, "trace length (0 = workload default)")
		traceF  = fs.String("trace", "", "trace file instead of a workload")
		window  = fs.Uint64("T", 0, "working-set window in references (0 = refs/8)")
		sizes   = fs.String("sizes", "4096,8192,16384,32768,65536", "comma-separated page sizes in bytes")
		two     = fs.Bool("two", true, "also compute the dynamic 4KB/32KB scheme")
		shards  = fs.Int("shards", 1, "compute the static pass over this many trace sections in parallel; the merge is exact, so any value gives the serial result (needs -trace)")
		statsF  = fs.String("stats", "", "write a JSON run report to this file (\"-\" = stderr)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Every flag value is checked before anything runs: a bad one is a
	// usage error naming the flag.
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "wsssim: "+format+"\n", args...)
		return 2
	}
	switch {
	case *shards < 1:
		return usage("-shards must be >= 1, got %d", *shards)
	case *traceF == "" && *wl == "":
		return usage("need -workload or -trace")
	case *traceF != "" && *wl != "":
		return usage("-workload does not combine with -trace")
	case *shards > 1 && *traceF == "":
		// A generated workload has no sections to split.
		return usage("-shards > 1 needs -trace")
	}
	var pageSizes []addr.PageSize
	for _, f := range strings.Split(*sizes, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil || !addr.PageSize(v).Valid() {
			return usage("-sizes: bad page size %q", f)
		}
		pageSizes = append(pageSizes, addr.PageSize(v))
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	// fail reports err; an interrupt is a one-line notice, exit 130.
	fail := func(err error) int {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintln(stderr, "wsssim: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "wsssim: %v\n", err)
		return 1
	}

	// open returns a reader over the input, n references long (at most,
	// for a trace).
	var open func() trace.Reader
	var file *trace.File
	var srcName string
	n := *refs
	switch {
	case *traceF != "":
		f, err := trace.OpenFile(ctx, *traceF)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		file, srcName = f, *traceF
		// -refs truncates the trace, never extends it: the auto window
		// is sized by what is read, as in tlbsim.
		if n == 0 || n > f.Refs() {
			n = f.Refs()
		}
		open = func() trace.Reader { return trace.NewLimit(f.Reader(), n) }
	default:
		spec, err := workload.Get(*wl)
		if err != nil {
			return usage("-workload: %v", err)
		}
		srcName = *wl
		if n == 0 {
			n = spec.DefaultRefs
		}
		open = func() trace.Reader { return spec.New(n) }
	}
	T := *window
	if T == 0 {
		T = max(n/8, 1)
	}
	twoCfg := policy.DefaultTwoSizeConfig(int(T))
	if err := twoCfg.Validate(); *two && err != nil {
		return usage("-T: %v", err)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "wsssim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "wsssim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	var totals obs.Counters
	var passes []obs.Pass
	start := time.Now()

	build := func() (*core.Simulator, error) {
		return core.NewSimulator(policy.NewSingle(addr.Size4K), nil, core.WithStaticWSS(T, pageSizes...)), nil
	}
	var twoSim *core.Simulator
	if *two {
		twoSim = core.NewSimulator(policy.NewTwoSize(twoCfg), nil, core.WithWSS())
	}
	var static, twoRes *core.Result
	if file != nil {
		// A trace's static pass runs in sections (one when -shards is 1),
		// which merge exactly into the serial result. The two-page
		// scheme reads the trace again, so each pass reports its own
		// decode counts.
		static, err = engine.RunSharded(engine.New(*shards), ctx, file, *refs, engine.ShardPlan{Shards: *shards}, "wss-static", build)
		if err == nil && twoSim != nil {
			twoRes, err = twoSim.Run(ctx, open())
		}
	} else {
		// A generated workload's passes share one read of it.
		sim, _ := build()
		sims := []*core.Simulator{sim}
		if twoSim != nil {
			sims = append(sims, twoSim)
		}
		var res []*core.Result
		if res, err = core.RunMany(ctx, open(), sims); err == nil {
			static = res[0]
			if twoSim != nil {
				twoRes = res[1]
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	passes = append(passes, obs.Pass{Key: fmt.Sprintf("wss-static w=%s T=%d", srcName, T), Counters: static.Counters})
	totals.Add(static.Counters)

	base := static.StaticWSS[0]
	fmt.Fprintf(stdout, "T = %d references\n", T)
	fmt.Fprintf(stdout, "%-10s %-12s %s\n", "scheme", "avg WSS", "normalized (vs first)")
	for _, r := range static.StaticWSS {
		fmt.Fprintf(stdout, "%-10s %-12s %.3f\n", r.Scheme, wss.FormatBytes(r.AvgBytes),
			metrics.WSNormalized(r.AvgBytes, base.AvgBytes))
	}
	if twoRes != nil {
		res, stats := twoRes.WSS, twoRes.PolicyStats
		passes = append(passes, obs.Pass{Key: fmt.Sprintf("wss-two w=%s T=%d", srcName, T), Counters: twoRes.Counters})
		totals.Add(twoRes.Counters)
		fmt.Fprintf(stdout, "%-10s %-12s %.3f   (promotions %d, demotions %d)\n",
			res.Scheme, wss.FormatBytes(res.AvgBytes),
			metrics.WSNormalized(res.AvgBytes, base.AvgBytes),
			stats.Promotions, stats.Demotions)
	}

	if *statsF != "" {
		rep := obs.New("wsssim")
		rep.Workloads = []string{srcName}
		rep.WallMS = time.Since(start).Milliseconds()
		rep.Totals = totals
		rep.Passes = passes
		if err := rep.Write(*statsF, stderr); err != nil {
			fmt.Fprintf(stderr, "wsssim: %v\n", err)
			return 1
		}
	}
	return 0
}

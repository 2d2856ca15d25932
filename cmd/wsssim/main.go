// Command wsssim computes average working-set sizes (the paper's
// Section 4 metric) over a synthetic workload or trace file, for any set
// of single page sizes and optionally the dynamic 4KB/32KB scheme.
//
// Examples:
//
//	wsssim -workload li                         # 4K..64K + two-page
//	wsssim -workload tomcatv -T 2000000 -sizes 4096,32768
//	wsssim -trace foo.trc -format text
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
		format  = fs.String("format", "auto", "trace file format: auto, v2, binary, or text")
		window  = fs.Uint64("T", 0, "working-set window in references (0 = refs/8)")
		sizes   = fs.String("sizes", "4096,8192,16384,32768,65536", "comma-separated page sizes in bytes")
		two     = fs.Bool("two", true, "also compute the dynamic 4KB/32KB scheme")
		shards  = fs.Int("shards", 1, "compute the static pass over this many v2-trace sections in parallel; the merge is exact, so any value gives the serial result (needs -trace)")
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
	if *shards < 1 {
		return usage("-shards must be >= 1, got %d", *shards)
	}
	var pageSizes []addr.PageSize
	var shifts []uint
	for _, f := range strings.Split(*sizes, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil || !addr.PageSize(v).Valid() {
			return usage("-sizes: bad page size %q", f)
		}
		pageSizes = append(pageSizes, addr.PageSize(v))
		shifts = append(shifts, addr.PageSize(v).Shift())
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	// open returns a fresh reader over the configured source, at most
	// -refs long; the two-page scheme is a second pass, so it is called
	// up to twice. v2 files are mmap'd once and reread via a new cursor
	// for free.
	var mapped *trace.File
	var srcName string
	open := func() (trace.Reader, error) {
		switch {
		case *traceF != "":
			srcName = *traceF
			var r trace.Reader
			if mapped != nil {
				r = mapped.Reader()
			} else {
				var err error
				if r, _, err = trace.OpenPath(*traceF, *format); err != nil {
					return nil, err // the file is released at process exit
				}
				if mr, ok := r.(*trace.MapReader); ok {
					mapped = mr.File()
				}
			}
			if *refs > 0 {
				r = trace.NewLimit(r, *refs)
			}
			return r, nil
		case *wl != "":
			spec, err := workload.Get(*wl)
			if err != nil {
				return nil, err
			}
			srcName = *wl
			n := *refs
			if n == 0 {
				n = spec.DefaultRefs
			}
			return spec.New(n), nil
		default:
			return nil, errors.New("need -workload or -trace")
		}
	}

	first, err := open()
	if err != nil {
		fmt.Fprintf(stderr, "wsssim: %v\n", err)
		return 1
	}
	n := *refs
	if n == 0 {
		if *wl != "" {
			if spec, err := workload.Get(*wl); err == nil {
				n = spec.DefaultRefs
			}
		} else if mapped != nil {
			n = mapped.Refs()
		}
	}
	T := *window
	if T == 0 {
		if n == 0 {
			T = 1 << 20
		} else {
			T = max(n/8, 1)
		}
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

	// Counters for the -stats report: references observed per pass via a
	// Tee (the static pass may be shorter than requested when a trace
	// file runs out), decode work harvested from the readers at the end.
	var totals obs.Counters
	var passes []obs.Pass
	start := time.Now()

	var results []wss.Result
	var c obs.Counters
	if *shards > 1 {
		if mapped == nil {
			fmt.Fprintln(stderr, "wsssim: -shards needs a v2 -trace file (sections require random access)")
			return 1
		}
		results, c, err = engine.StaticWSSSections(engine.New(*shards), ctx, mapped, *refs, *shards, T, shifts, "wss-static")
	} else {
		var staticRefs uint64
		staticSrc := trace.NewTee(first, func(batch []trace.Ref) { staticRefs += uint64(len(batch)) })
		results, err = core.MeasureStaticWSS(ctx, staticSrc, T, pageSizes...)
		if err == nil {
			c = core.DecodeCounters(staticSrc)
			c.Passes, c.Refs, c.WSSPages = 1, staticRefs, results[0].Pages
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintln(stderr, "wsssim: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "wsssim: %v\n", err)
		return 1
	}
	passes = append(passes, obs.Pass{Key: fmt.Sprintf("wss-static w=%s T=%d", srcName, T), Counters: c})
	totals.Add(c)

	base := results[0]
	fmt.Fprintf(stdout, "T = %d references\n", T)
	fmt.Fprintf(stdout, "%-10s %-12s %s\n", "scheme", "avg WSS", "normalized (vs first)")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-10s %-12s %.3f\n", r.Scheme, wss.FormatBytes(r.AvgBytes),
			metrics.WSNormalized(r.AvgBytes, base.AvgBytes))
	}
	if *two {
		second, err := open()
		if err != nil {
			fmt.Fprintf(stderr, "wsssim: %v\n", err)
			return 1
		}
		var twoRefs uint64
		twoSrc := trace.NewTee(second, func(batch []trace.Ref) { twoRefs += uint64(len(batch)) })
		sim := core.NewSimulator(policy.NewTwoSize(twoCfg), nil, core.WithWSS())
		out, err := sim.Run(ctx, twoSrc)
		if err != nil {
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				fmt.Fprintln(stderr, "wsssim: interrupted")
				return 130
			}
			fmt.Fprintf(stderr, "wsssim: %v\n", err)
			return 1
		}
		res, stats := out.WSS, out.PolicyStats
		c := core.DecodeCounters(twoSrc)
		c.Passes = 1
		c.Refs = twoRefs
		c.Promotions = stats.Promotions
		c.Demotions = stats.Demotions
		passes = append(passes, obs.Pass{Key: fmt.Sprintf("wss-two w=%s T=%d", srcName, T), Counters: c})
		totals.Add(c)
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

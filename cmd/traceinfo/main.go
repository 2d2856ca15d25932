// Command traceinfo characterizes a reference stream — a synthetic
// workload or a trace file — in the paper's analytical terms: footprint
// at both page sizes, chunk density (predicting the promotion policy's
// behaviour), stride distribution and sequentiality.
//
// Examples:
//
//	traceinfo -workload worm
//	traceinfo -workload matrix300 -refs 2000000
//	traceinfo -trace m300.trc -refs 1000000     # v2, binary or text, by its magic
//	traceinfo -all            # one-line summary for all 12 programs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"twopage/internal/addr"
	"twopage/internal/trace"
	"twopage/internal/tracestat"
	"twopage/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single os.Exit, so the trace file
// is closed on every exit path. Every bad flag value or combination is
// a usage error (exit 2) reported before anything is read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl     = fs.String("workload", "", "synthetic workload name")
		refs   = fs.Uint64("refs", 0, "trace length (0 = workload default)")
		traceF = fs.String("trace", "", "trace file instead of a workload")
		all    = fs.Bool("all", false, "summarize all twelve programs (one line each)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "traceinfo: "+format+"\n", args...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "traceinfo: %v\n", err)
		return 1
	}
	switch {
	case *all && *wl != "":
		return usage("-all summarizes every program; it does not combine with -workload")
	case *all && *traceF != "":
		return usage("-all summarizes every program; it does not combine with -trace")
	case !*all && *wl == "" && *traceF == "":
		return usage("need -workload, -trace, or -all")
	case *wl != "" && *traceF != "":
		return usage("-workload does not combine with -trace")
	}

	if *all {
		fmt.Fprintf(stdout, "%-10s %-9s %-10s %-12s %-12s %s\n",
			"program", "refs(M)", "footprint", "blocks/chunk", "promotable", "sequential")
		for _, s := range workload.All() {
			n := *refs
			if n == 0 {
				n = s.DefaultRefs / 4 // quarter-length is plenty for footprints
			}
			rep, err := tracestat.Analyze(s.New(n))
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%-10s %-9.1f %-10s %-12.2f %-12s %s\n",
				s.Name, float64(n)/1e6,
				fmt.Sprintf("%.2fMB", float64(rep.FootprintBytes)/(1<<20)),
				rep.MeanDensity(),
				fmt.Sprintf("%.0f%%", 100*rep.PromotableFraction(addr.BlocksPerChunk/2)),
				fmt.Sprintf("%.0f%%", 100*rep.SeqFraction()))
		}
		return 0
	}

	var src trace.Reader
	if *traceF != "" {
		f, err := trace.OpenFile(context.Background(), *traceF)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		fmt.Fprintf(stdout, "v2 trace:        %d blocks, %d refs, %d bytes (%.3f bytes/ref)\n",
			f.Blocks(), f.Refs(), f.Size(), f.BytesPerRef())
		src = f.Reader()
		if *refs > 0 {
			src = trace.NewLimit(src, *refs)
		}
	} else {
		spec, err := workload.Get(*wl)
		if err != nil {
			return usage("-workload: %v", err)
		}
		n := *refs
		if n == 0 {
			n = spec.DefaultRefs
		}
		src = spec.New(n)
	}

	rep, err := tracestat.Analyze(src)
	if err != nil {
		return fail(err)
	}
	if _, err := rep.WriteTo(stdout); err != nil {
		return fail(err)
	}
	return 0
}

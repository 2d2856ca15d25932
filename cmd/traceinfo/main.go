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
	"flag"
	"fmt"
	"os"

	"twopage/internal/addr"
	"twopage/internal/trace"
	"twopage/internal/tracestat"
	"twopage/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "", "synthetic workload name")
		refs   = flag.Uint64("refs", 0, "trace length (0 = workload default)")
		traceF = flag.String("trace", "", "trace file instead of a workload")
		all    = flag.Bool("all", false, "summarize all twelve programs (one line each)")
	)
	flag.Parse()

	if *all {
		fmt.Printf("%-10s %-9s %-10s %-12s %-12s %s\n",
			"program", "refs(M)", "footprint", "blocks/chunk", "promotable", "sequential")
		for _, s := range workload.All() {
			n := *refs
			if n == 0 {
				n = s.DefaultRefs / 4 // quarter-length is plenty for footprints
			}
			rep, err := tracestat.Analyze(s.New(n))
			if err != nil {
				fatal("%v", err)
			}
			fmt.Printf("%-10s %-9.1f %-10s %-12.2f %-12s %s\n",
				s.Name, float64(n)/1e6,
				fmt.Sprintf("%.2fMB", float64(rep.FootprintBytes)/(1<<20)),
				rep.MeanDensity(),
				fmt.Sprintf("%.0f%%", 100*rep.PromotableFraction(addr.BlocksPerChunk/2)),
				fmt.Sprintf("%.0f%%", 100*rep.SeqFraction()))
		}
		return
	}

	var src trace.Reader
	switch {
	case *traceF != "":
		f, err := trace.OpenFile(context.Background(), *traceF)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		fmt.Printf("v2 trace:        %d blocks, %d refs, %d bytes (%.3f bytes/ref)\n",
			f.Blocks(), f.Refs(), f.Size(), f.BytesPerRef())
		src = f.Reader()
		if *refs > 0 {
			src = trace.NewLimit(src, *refs)
		}
	case *wl != "":
		spec, err := workload.Get(*wl)
		if err != nil {
			fatal("%v", err)
		}
		n := *refs
		if n == 0 {
			n = spec.DefaultRefs
		}
		src = spec.New(n)
	default:
		fatal("need -workload, -trace, or -all")
	}

	rep, err := tracestat.Analyze(src)
	if err != nil {
		fatal("%v", err)
	}
	if _, err := rep.WriteTo(os.Stdout); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceinfo: "+format+"\n", args...)
	os.Exit(1)
}

// Command vmsim runs the end-to-end virtual-memory simulator: TLB +
// two-size page table + buddy allocator + clock replacement (core's
// memory stage), with full cycle accounting. It answers "what does the
// whole translation path cost", where tlbsim answers only the TLB
// question. A bad flag value is a usage error (exit 2) reported before
// anything is built.
//
// Examples:
//
//	vmsim -workload matrix300 -mem 4M -two
//	vmsim -workload li -mem 512K -entries 32 -ways 2
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/disk"
	"twopage/internal/physmem"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

// parseSize parses a byte count with an optional K or M suffix,
// rejecting one whose byte value overflows.
func parseSize(s string) (addr.PageSize, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("size overflows 64 bits")
	}
	return addr.PageSize(v * mult), nil
}

func main() {
	var (
		wl      = flag.String("workload", "", "synthetic workload name")
		refs    = flag.Uint64("refs", 0, "trace length (0 = workload default)")
		mem     = flag.String("mem", "16M", "physical memory size, e.g. 512K, 4M")
		entries = flag.Int("entries", 16, "TLB entries")
		ways    = flag.Int("ways", 0, "associativity (0 = fully associative)")
		two     = flag.Bool("two", false, "dynamic 4KB/32KB policy instead of 4KB")
		window  = flag.Int("T", 0, "policy window (0 = refs/8)")
		fault   = flag.Float64("faultcycles", 0, "cycles per page fault (0 = default 500)")
		useDisk = flag.Bool("disk", false, "price faults with the 1992 positional disk model instead of -faultcycles")
	)
	flag.Parse()
	if *window < 0 {
		usage("-T must be >= 0 (0 = refs/8), got %d", *window)
	}
	size, err := parseSize(*mem)
	if err == nil {
		err = physmem.CheckSize(size)
	}
	if err != nil {
		usage("-mem %s: %v", *mem, err)
	}
	if !(*fault >= 0) || math.IsInf(*fault, 1) {
		usage("-faultcycles must be a finite number >= 0, got %g", *fault)
	}
	w := *ways
	if w == 0 {
		w = *entries
	}
	tcfg := tlb.Config{Entries: *entries, Ways: w, Index: tlb.IndexExact}
	if _, err := tcfg.Normalized(); err != nil {
		usage("-entries %d -ways %d: %v", *entries, *ways, err)
	}

	if *wl == "" {
		fatal("need -workload (one of: %v)", workload.Names())
	}
	spec, err := workload.Get(*wl)
	if err != nil {
		fatal("%v", err)
	}
	n := *refs
	if n == 0 {
		n = spec.DefaultRefs
	}
	hw, err := tlb.New(tcfg)
	if err != nil {
		fatal("%v", err)
	}
	var pol policy.Assigner
	if *two {
		T := *window
		if T == 0 {
			T = int(max(n/8, 1))
		}
		pol = policy.NewTwoSize(policy.DefaultTwoSizeConfig(T))
	} else {
		pol = policy.NewSingle(addr.Size4K)
	}
	m := core.Memory{Size: size, FaultCycles: *fault}
	if *useDisk {
		dm := disk.Default()
		m.Disk = &dm
	}
	res, err := core.NewSimulator(pol, []tlb.TLB{hw}, core.WithMemory(m)).Run(context.Background(), spec.New(n))
	if err != nil {
		fatal("%v", err)
	}

	ts, pt, ms := res.TLBs[0].Stats, res.PageTable, res.Memory
	fmt.Printf("workload:     %s (%d refs), policy %s, %s, memory %s\n",
		spec.Name, res.Refs, pol.Name(), hw.Name(), size)
	fmt.Printf("TLB:          %d hits, %d misses (%.4f%% miss)\n",
		ts.Hits(), ts.Misses(), 100*float64(ts.Misses())/float64(res.Refs))
	fmt.Printf("walks:        %d (%d refills, %d faults)\n", pt.Lookups, pt.Lookups-pt.Misses, pt.Misses)
	fmt.Printf("replacement:  %d evictions (%d large)\n", ms.Evictions, ms.EvictionsByClass[1])
	fmt.Printf("promotion:    %d promotions, %d demotions, %.1f KB copied\n",
		pt.Promotions, pt.Demotions, float64(pt.CopiedBytes)/1024)
	fmt.Printf("memory:       %d/%d frames free, %d large allocs, %d fragmentation-blocked\n",
		ms.FreeFrames, ms.TotalFrames, ms.Buddy.LargeAllocs, ms.Buddy.FailedLargeFragmented)
	if ms.IO.PageIns > 0 {
		fmt.Printf("disk I/O:     %d page-ins, %.2f MB, %.0f ms\n",
			ms.IO.PageIns, float64(ms.IO.BytesIn)/(1<<20),
			ms.IO.IOCycles/(disk.Default().CPUMHz*1e3))
	}
	fmt.Printf("translation:  %.3f cycles/access (%.0f total)\n", res.CyclesPerRef(), ms.Cycles)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vmsim: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports a bad flag value and exits 2, as flag parsing does.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vmsim: "+format+"\n", args...)
	os.Exit(2)
}

// Multiprog: the experiment the paper wished it could run. Its authors
// note twice that their uniprogrammed traces understate TLB pressure
// ("our traces do not include multiprogramming or operating system
// behavior"). This example interleaves four of the modelled programs
// round-robin, the way a time-sharing SPARCstation would, and compares:
//
//   - an ASID-tagged TLB (entries survive context switches) against
//     flush-on-switch hardware, and
//   - the 4KB baseline against the dynamic 4KB/32KB policy,
//
// on a 64-entry fully associative TLB — the "large TLB" regime the
// paper could not exercise.
//
// Run with:
//
//	go run ./examples/multiprog
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/multiprog"
	"twopage/internal/policy"
	"twopage/internal/tableio"
	"twopage/internal/tlb"
	"twopage/internal/workload"
)

const (
	perProcess = 600_000
	quantum    = 20_000 // references per scheduling slice
)

var mix = []string{"li", "x11perf", "espresso", "eqntott"}

func run(two, flush bool) (cpi float64, switches uint64) {
	procs := make([]multiprog.Process, len(mix))
	for i, name := range mix {
		procs[i] = multiprog.Process{Name: name, Source: workload.MustNew(name, perProcess)}
	}
	mp, err := multiprog.New(procs, quantum)
	if err != nil {
		log.Fatal(err)
	}
	var pol policy.Assigner
	if two {
		pol = policy.NewTwoSize(policy.DefaultTwoSizeConfig(perProcess / 2))
	} else {
		pol = policy.NewSingle(addr.Size4K)
	}
	var hw tlb.TLB = tlb.NewFullyAssoc(64)
	if flush {
		hw = multiprog.NewFlushOnSwitch(hw)
	}
	sim := core.NewSimulator(pol, []tlb.TLB{hw})
	res, err := sim.Run(context.Background(), mp)
	if err != nil {
		log.Fatal(err)
	}
	return res.TLBs[0].CPITLB, mp.Switches()
}

func main() {
	fmt.Printf("four-process mix %v, quantum %d refs, 64-entry fully associative TLB\n\n", mix, quantum)
	tbl := tableio.New("", "policy", "TLB on switch", "CPI_TLB", "switches")
	for _, two := range []bool{false, true} {
		for _, flush := range []bool{false, true} {
			name := "4KB"
			if two {
				name = "4KB/32KB"
			}
			mode := "ASID-tagged (kept)"
			if flush {
				mode = "flushed"
			}
			cpi, sw := run(two, flush)
			tbl.Row(name, mode, tableio.F(cpi, 3), fmt.Sprintf("%d", sw))
		}
	}
	if _, err := tbl.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEach slice evicts the other processes' entries before they run again,")
	fmt.Println("so at this quantum flushing costs nothing over ASID tags. Large pages")
	fmt.Println("refill each process's footprint after a switch with far fewer entries —")
	fmt.Println("the effect the paper predicted but could not measure.")
}

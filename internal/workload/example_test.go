package workload_test

import (
	"context"
	"fmt"
	"log"

	"twopage/internal/trace"
	"twopage/internal/workload"
)

// ExampleParse models a program in the spec language and counts its
// reference mix.
func ExampleParse() {
	src, err := workload.Parse("demo", 100_000, `
code funcs=2 body=256 visit=1024
dpi 0.5
seq     base=16M size=256K stride=64 weight=0.7 store=0.3
uniform base=32M size=16K align=8 weight=0.3 store=0.5
`)
	if err != nil {
		log.Fatal(err)
	}
	c, err := trace.CountRefs(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total refs: %d\n", c.Total())
	fmt.Printf("references per instruction: %.1f\n", c.RPI())
	// Output:
	// total refs: 100000
	// references per instruction: 1.5
}

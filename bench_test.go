package twopage_test

import (
	"context"
	"runtime"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/allassoc"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// Per-experiment wall times come from perfbench's traced suite-golden
// run (experiments.<id>_s); this file keeps the engine, simulator,
// sweep and codec micro-benchmarks.

// benchEngineAt runs the CPI-heavy experiment block through one shared
// engine at the given parallelism — the workload mix of `paper
// fig5.1 fig5.2 table5.1 deltamp indexing -scale 0.05 -j n`. Comparing
// the two sub-benchmarks shows the pool's speedup; on a >= 4-core
// machine the parallel variant approaches a linear multiple of the
// sequential one (the passes are independent simulations).
func benchEngineAt(b *testing.B, parallelism int) {
	b.Helper()
	ids := []string{"fig5.1", "fig5.2", "table5.1", "deltamp", "indexing"}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(
			experiments.WithScale(0.05),
			experiments.WithEngine(engine.New(parallelism)),
		)
		for _, o := range r.RunAll(context.Background(), ids...) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

func BenchmarkEngineSequential(b *testing.B) { benchEngineAt(b, 1) }
func BenchmarkEngineParallel(b *testing.B)   { benchEngineAt(b, runtime.NumCPU()) }

// Micro-benchmarks of the simulation engine itself.

// BenchmarkSimulatorTwoSize measures end-to-end references/second of
// the full pipeline: generation → dynamic policy → TLB access.
func BenchmarkSimulatorTwoSize(b *testing.B) {
	pol := policy.NewTwoSize(policy.DefaultTwoSizeConfig(1 << 17))
	sim := core.NewSimulator(pol, []tlb.TLB{tlb.NewFullyAssoc(16)})
	res, err := sim.Run(context.Background(), workload.MustNew("matrix300", uint64(b.N)+1))
	if err != nil {
		b.Fatal(err)
	}
	if res.Refs == 0 {
		b.Fatal("no refs simulated")
	}
}

// BenchmarkSimulatorSingle4K is the single-page-size baseline pipeline.
func BenchmarkSimulatorSingle4K(b *testing.B) {
	sim := core.NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
	if _, err := sim.Run(context.Background(), workload.MustNew("matrix300", uint64(b.N)+1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllAssocSweep measures the tycho-style sweep covering 24 TLB
// configurations in one pass.
func BenchmarkAllAssocSweep(b *testing.B) {
	sw, err := allassoc.NewSweep([]int{4, 8, 16}, addr.Shift4K, 8)
	if err != nil {
		b.Fatal(err)
	}
	src := workload.MustNew("li", uint64(b.N)+1)
	buf := make([]trace.Ref, 8192)
	b.ResetTimer()
	n := 0
	for n < b.N {
		m, rerr := src.Read(buf)
		for _, r := range buf[:m] {
			sw.Access(r.Addr)
		}
		n += m
		if rerr != nil {
			break
		}
	}
}

// BenchmarkTraceCodec measures binary trace encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	src := workload.MustNew("eqntott", uint64(b.N)+1)
	var pipe nopBuffer
	w := trace.NewWriter(&pipe)
	if _, err := trace.Drain(src, func(batch []trace.Ref) {
		if err := w.Write(batch); err != nil {
			b.Fatal(err)
		}
	}); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(pipe.n) / int64(b.N+1))
}

type nopBuffer struct{ n uint64 }

func (nb *nopBuffer) Write(p []byte) (int, error) {
	nb.n += uint64(len(p))
	return len(p), nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// maskTimings hides the designspace experiment's wall-clock ratio, the
// one cell of the goldens that depends on the host (golden_test.go).
var maskTimings = regexp.MustCompile(`\d+\.\d+x *`)

// suiteBench runs every experiment at the golden configuration (scale
// 0.01, programs li and worm) through one experiments.Runner at
// parallelism 1, and compares each table with testdata/golden.
type suiteBench struct {
	goldenDir string
	ids       []string
	goldens   map[string][]byte
	refs      uint64 // deterministic refs total of one suite
}

func newSuiteBench(goldenDir string) *suiteBench {
	all := experiments.All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return &suiteBench{goldenDir: goldenDir, ids: ids}
}

// setup reads the goldens the first time. The suite builds no input of
// its own: its generators run inside the timed work. Its set-up time is
// that of the generators the suite runs, drained at their golden lengths.
func (b *suiteBench) setup(ctx context.Context) (time.Duration, error) {
	if b.goldens == nil {
		b.goldens = make(map[string][]byte, len(b.ids))
		for _, id := range b.ids {
			g, err := os.ReadFile(filepath.Join(b.goldenDir, id+".txt"))
			if err != nil {
				return 0, fmt.Errorf("perfbench: golden table: %w", err)
			}
			b.goldens[id] = g
		}
	}
	d, _, err := generateSuite(ctx)
	return d, err
}

// suitePrograms are the programs whose generators the golden
// configuration runs: its workload set, li and worm, and the rest of the
// multiprog and sharedmem experiments' process mixes. The other programs
// of workload.All never run in the suite.
var suitePrograms = []string{"li", "worm", "x11perf", "espresso", "eqntott"}

// generateSuite drains the generator of every program in suitePrograms
// at its golden length (a hundredth of its default, at least 40,000
// references) and returns the time taken and the references generated.
func generateSuite(ctx context.Context) (time.Duration, uint64, error) {
	specs := make([]workload.Spec, len(suitePrograms))
	for i, name := range suitePrograms {
		s, err := workload.Get(name)
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: %w", err)
		}
		specs[i] = s
	}
	var total uint64
	start := time.Now()
	for _, s := range specs {
		n, err := trace.DrainContext(ctx, s.New(max(s.DefaultRefs/100, 40_000)), func([]trace.Ref) {})
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: generating %s: %w", s.Name, err)
		}
		total += n
	}
	return time.Since(start), total, nil
}

// suiteRun is one suite's output: the tables back to back, the offset
// each experiment's table ends at, each experiment's host time, and the
// engine's counters.
type suiteRun struct {
	out   bytes.Buffer
	ends  []int
	times []time.Duration
	col   *obs.Collector
	eng   *engine.Engine
}

// runSuite runs the experiments in registry order on one fresh engine,
// so the memo cache is shared across experiments but not across suites.
// With a tracer, each experiment is a span under parent.
func (b *suiteBench) runSuite(ctx context.Context, tr *tracer, parent int) (*suiteRun, error) {
	run := &suiteRun{col: obs.NewCollector()}
	run.eng = engine.New(1, engine.WithCollector(run.col))
	r := experiments.NewRunner(
		experiments.WithScale(0.01),
		experiments.WithWorkloads("li", "worm"),
		experiments.WithEngine(run.eng),
		experiments.WithOut(&run.out),
	)
	for _, id := range b.ids {
		sp := tr.start("experiment "+id, parent)
		start := time.Now()
		err := r.Run(ctx, id)
		run.times = append(run.times, time.Since(start))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		run.ends = append(run.ends, run.out.Len())
	}
	return run, nil
}

// rep runs one suite.
func (b *suiteBench) rep(ctx context.Context) (uint64, time.Duration, func() error, error) {
	start := time.Now()
	run, err := b.runSuite(ctx, nil, 0)
	d := time.Since(start)
	if err != nil {
		return 0, 0, nil, err
	}
	refs := run.col.Totals().Refs
	return refs, d, func() error { return b.check(run, refs) }, nil
}

// check compares every table with its golden under the timing mask and
// holds the refs total to the first suite's.
func (b *suiteBench) check(run *suiteRun, refs uint64) error {
	if b.refs == 0 {
		b.refs = refs
	}
	if refs != b.refs || refs == 0 {
		return fmt.Errorf("suite simulated %d references, first suite %d", refs, b.refs)
	}
	var bad []string
	start := 0
	for i, id := range b.ids {
		table := run.out.Bytes()[start:run.ends[i]]
		start = run.ends[i]
		if !bytes.Equal(maskTimings.ReplaceAll(table, []byte("T")), b.goldens[id]) {
			bad = append(bad, id)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d tables differ from %s: %s", len(bad), b.goldenDir, strings.Join(bad, " "))
	}
	return nil
}

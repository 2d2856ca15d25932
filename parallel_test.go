package twopage_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"twopage/internal/addr"
	"twopage/internal/core"
	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/policy"
	"twopage/internal/tlb"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// maskTimings hides the designspace experiment's wall-clock ratio, the
// one intentionally time-dependent cell in any table. The trailing
// column padding is masked with the digits: the cell's rendered width
// tracks the raw ratio string, so a run crossing the 10x boundary
// would otherwise shift the padding by a character.
var maskTimings = regexp.MustCompile(`\d+\.\d+x *`)

// runAll runs the experiments (all of them when ids is empty) through
// r.RunAll, the path cmd/paper ships, and returns their tables rendered
// in request order with the designspace timing masked.
func runAll(t *testing.T, r *experiments.Runner, ids ...string) string {
	t.Helper()
	var sb bytes.Buffer
	for _, o := range r.RunAll(context.Background(), ids...) {
		if o.Err != nil {
			t.Fatalf("parallelism %d: %v", r.Options().Engine.Parallelism(), o.Err)
		}
		if err := r.Options().Render(o.Table, &sb); err != nil {
			t.Fatal(err)
		}
	}
	return maskTimings.ReplaceAllString(sb.String(), "T")
}

// renderAll runs every registered experiment through one Runner at the
// given parallelism and returns the combined output.
func renderAll(t *testing.T, parallelism int) string {
	t.Helper()
	return runAll(t, experiments.NewRunner(
		experiments.WithScale(0.01),
		experiments.WithWorkloads("li", "worm"),
		experiments.WithEngine(engine.New(parallelism)),
	))
}

// The tentpole guarantee: running the whole paper concurrently produces
// byte-identical output to running it sequentially. Tables are
// reassembled in registry order regardless of which worker finished
// first, and the memo cache returns shared (deterministic) results.
func TestParallelOutputMatchesSequential(t *testing.T) {
	seq := renderAll(t, 1)
	par := renderAll(t, 8)
	if seq != par {
		t.Fatalf("output differs between -j 1 and -j 8:\n-- j1 --\n%s\n-- j8 --\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("no output produced")
	}
}

// writeV2Workload generates a workload's reference stream into a v2
// trace file and memory-maps it back.
func writeV2Workload(t *testing.T, name string, refs uint64, blockRefs int) *trace.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".trc")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewV2WriterBlock(out, blockRefs)
	if _, err := trace.Drain(workload.MustNew(name, refs), func(batch []trace.Ref) {
		if werr := w.Write(batch); werr != nil {
			t.Fatal(werr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := trace.OpenFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// The tentpole guarantee extends to file-backed workloads: with an
// mmap'd v2 trace standing in for a modelled program, every experiment
// still renders byte-identically at -j 1 and -j 8 (all parallel passes
// decode the one shared mapping through independent cursors).
func TestParallelOutputMatchesSequentialOverTraceFile(t *testing.T) {
	f := writeV2Workload(t, "li", 80_000, 4096)
	const name = "trace:li-partest"
	if err := workload.RegisterFile(name, f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.Unregister(name) })

	render := func(parallelism int) string {
		return runAll(t, experiments.NewRunner(
			experiments.WithScale(0.01),
			experiments.WithWorkloads(name),
			experiments.WithEngine(engine.New(parallelism)),
		))
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("trace-file output differs between -j 1 and -j 8:\n-- j1 --\n%s\n-- j8 --\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("no output produced")
	}
}

// The three-size ladder experiment mixes memoized engine passes with
// opaque tasks (the sampled working-set and NAPOT runs), so its -j
// invariance is pinned on its own, not just as part of the full-registry
// sweep above: a scheduling dependence here would implicate the new
// N-size machinery specifically.
func TestLadder3DeterministicAcrossParallelism(t *testing.T) {
	render := func(parallelism int) string {
		return runAll(t, experiments.NewRunner(
			experiments.WithScale(0.01),
			experiments.WithWorkloads("li", "worm"),
			experiments.WithEngine(engine.New(parallelism)),
		), "ladder3", "nindex")
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("ladder3/nindex output differs between -j 1 and -j 8:\n-- j1 --\n%s\n-- j8 --\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("no output produced")
	}
}

// Section-split simulation is deterministic in the engine: simulating
// the same 8 disjoint sections of one mapped trace must render the
// same per-section miss table whether one worker or eight execute the
// sections.
func TestSectionSimulationDeterministicAcrossParallelism(t *testing.T) {
	f := writeV2Workload(t, "worm", 120_000, 2048)
	const sections = 8
	render := func(parallelism int) string {
		e := engine.New(parallelism)
		fut := engine.MapSections(e, context.Background(), f, sections, "worm",
			func(ctx context.Context, r *trace.MapReader, section int) (string, error) {
				sim := core.NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
				res, err := sim.Run(ctx, r)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("section %d: refs %d misses %d\n",
					section, res.Refs, res.TLBs[0].Stats.Misses()), nil
			})
		parts, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sb bytes.Buffer
		var refs uint64
		for _, p := range parts {
			sb.WriteString(p)
		}
		for i := 0; i < sections; i++ {
			refs += f.SectionRefs(i, sections)
		}
		if refs != f.Refs() {
			t.Fatalf("sections cover %d refs, file has %d", refs, f.Refs())
		}
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("section table differs between 1 and 8 workers:\n-- 1 --\n%s\n-- 8 --\n%s", seq, par)
	}
}

// cancelAfterReader cancels its context after n batches, simulating a
// user interrupt arriving mid-trace.
type cancelAfterReader struct {
	src    trace.Reader
	cancel context.CancelFunc
	n      int
}

func (c *cancelAfterReader) Read(p []trace.Ref) (int, error) {
	if c.n--; c.n < 0 {
		c.cancel()
	}
	return c.src.Read(p)
}

// A canceled context stops core.Simulator.Run between batches, long
// before the trace is exhausted, and surfaces context.Canceled.
func TestSimulatorRunCancellation(t *testing.T) {
	const refs = 50_000_000 // far more than a test should ever simulate
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterReader{src: workload.MustNew("li", refs), cancel: cancel, n: 2}
	sim := core.NewSimulator(policy.NewSingle(addr.Size4K), []tlb.TLB{tlb.NewFullyAssoc(16)})
	_, err := sim.Run(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancellation propagates through the engine and Runner: a canceled
// context fails the run with context.Canceled instead of hanging or
// returning partial tables.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := experiments.NewRunner(
		experiments.WithScale(0.01),
		experiments.WithWorkloads("li"),
		experiments.WithEngine(engine.New(2)),
	)
	for _, o := range r.RunAll(ctx, "table3.1", "fig5.1") {
		if !errors.Is(o.Err, context.Canceled) || o.Table != nil {
			t.Fatalf("%s: table %v, err = %v, want no table and context.Canceled", o.ID, o.Table, o.Err)
		}
	}
}

// The JSON rendering mode produces one decodable document per table.
func TestExperimentsJSON(t *testing.T) {
	var sb bytes.Buffer
	r := experiments.NewRunner(
		experiments.WithScale(0.01),
		experiments.WithWorkloads("li"),
		experiments.WithOut(&sb),
		experiments.WithJSON(true),
	)
	if err := r.Run(context.Background(), "table3.1"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string              `json:"title"`
		Columns []string            `json:"columns"`
		Rows    []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(sb.Bytes(), &doc); err != nil {
		t.Fatalf("undecodable JSON: %v\n%s", err, sb.String())
	}
	if doc.Title == "" || len(doc.Columns) == 0 || len(doc.Rows) == 0 {
		t.Fatalf("empty JSON document: %+v", doc)
	}
	if _, ok := doc.Rows[0][doc.Columns[0]]; !ok {
		t.Fatalf("rows not keyed by column headers: %+v", doc.Rows[0])
	}
}

// Command paper regenerates the tables and figures of "Tradeoffs in
// Supporting Two Page Sizes" (Talluri, Kong, Hill, Patterson; ISCA 1992)
// from the synthetic workload models in this repository.
//
// Usage:
//
//	paper [-scale f] [-j n] [-csv|-json] [-workloads a,b,c] [experiment ...]
//	paper -trace li.trc tlbsweep      # run experiments over a trace file
//	paper -stats report.json all      # also write a JSON run report
//	paper -list
//
// With no experiment arguments (or "all"), every experiment runs in
// order. Scale 1.0 (default) runs the full-length traces; smaller scales
// shrink traces and windows proportionally for quick looks.
//
// Beyond the paper's own two-size tables, the ladder3 and nindex
// experiments extend the evaluation to deeper page-size hierarchies
// (4KB/32KB/256KB): the Section 3.4 policy generalized to an N-level
// promotion ladder, and Section 2.2's indexing dilemma with three
// coexisting sizes.
//
// Experiments execute concurrently over one shared engine: -j bounds
// the simulation worker pool (a pool slot's pass may use a second CPU
// while one is idle), identical passes are simulated once, and tables
// are printed in request order — stdout is byte-identical for any -j.
// Timing and -progress reports go to stderr, as does the -stats run
// report when its destination is "-" (the report's counter sections are
// themselves identical for any -j; see internal/obs).
//
// A failed experiment does not abort the run: every successful table is
// still printed, every failure is reported on stderr, and the process
// exits 1 once at the end. SIGINT stops the simulation between batches
// and exits 130 with a one-line notice.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"twopage/internal/engine"
	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/plot"
	"twopage/internal/profiling"
	"twopage/internal/trace"
	"twopage/internal/workload"
)

// chartSpec maps chartable experiments to the table columns forming
// categories and value series; Log marks the paper's log-axis figures.
var chartSpec = map[string]struct {
	cat, val []int
	log      bool
}{
	"fig4.1":   {[]int{0}, []int{1, 2, 3, 4}, true},
	"fig4.2":   {[]int{0}, []int{1, 2, 3, 4}, true},
	"fig5.1":   {[]int{0}, []int{1, 2, 3, 4}, false},
	"fig5.2":   {[]int{0, 1}, []int{2, 3, 4, 5}, false},
	"table5.1": {[]int{0, 1}, []int{2, 3, 4, 5}, false},
	"conflict": {[]int{0}, []int{1, 2, 3, 4}, false},
	"combos":   {[]int{0}, []int{1, 2, 3}, false},
	"tlbsweep": {[]int{0, 1}, []int{2, 3, 4, 5, 6}, true},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a single os.Exit: every error path
// returns through it, so deferred cleanups — the profile flush above
// all — always execute. (The old structure called os.Exit(1) from the
// middle of main, silently truncating -cpuprofile output whenever any
// experiment failed.)
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "trace-length multiplier (1.0 = full size)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit JSON documents instead of aligned tables")
	chart := fs.Bool("chart", false, "render figures as ASCII bar charts where applicable")
	list := fs.Bool("list", false, "list available experiments and exit")
	workloads := fs.String("workloads", "", "comma-separated program subset (default: experiment's own)")
	traceF := fs.String("trace", "", "run experiments over a trace file instead of the modelled programs")
	parallelism := fs.Int("j", runtime.NumCPU(), "max concurrent simulation passes (a pass may use a second CPU while one is idle)")
	shards := fs.Int("shards", 1, "split each trace-file pass into this many sections simulated in parallel and merged (1 = exact serial pass; only affects -trace workloads)")
	warmup := fs.Uint64("warmup", 0, "per-shard warm-up references replayed before measuring (0 = auto from the policy window; needs -shards > 1)")
	walkPWC := fs.Int("walkpwc", 0, "walkcpi family: page-walk-cache entries per level (0 = default, negative = disable)")
	walkMem := fs.Int("walkmem", 0, "walkcpi family: memory-side cache bytes for walk loads (0 = default, negative = disable)")
	progress := fs.Bool("progress", false, "report each completed simulation pass on stderr")
	statsF := fs.String("stats", "", "write a JSON run report to this file (\"-\" = stderr)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paper [flags] [experiment ...|all]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nExperiments (run `paper -list` for details):\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(stderr, "  %s\n", e.ID)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Every flag value is checked before anything is built: a bad one
	// is a usage error naming the flag, never a hang, a panic or a
	// silently substituted default that the run report then misstates.
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "paper: "+format+"\n", args...)
		return 2
	}
	// A flag the run would ignore is a usage error too.
	set := map[string]bool{}
	var others []string // flags set besides -list, in lexical order
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if f.Name != "list" {
			others = append(others, "-"+f.Name)
		}
	})
	if *list {
		switch {
		case len(others) > 0:
			return usage("-list does not combine with %s", strings.Join(others, ", "))
		case fs.NArg() > 0:
			return usage("-list takes no experiment, got %s", strings.Join(fs.Args(), " "))
		}
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n%13s%s\n", e.ID, e.Title, "", e.About)
		}
		return 0
	}
	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil // RunAll runs every experiment
	}
	walks := len(ids) == 0 || slices.Contains(ids, "walkcpi") || slices.Contains(ids, "walkdeltamp")
	// phases, multiprog and sharedmem build their own streams; only the
	// other experiments read the workload set, which -trace feeds.
	ownStreams := []string{"phases", "multiprog", "sharedmem"}
	programs := len(ids) == 0 || slices.ContainsFunc(ids, func(id string) bool { return !slices.Contains(ownStreams, id) })
	// A -workloads list replaces the trace file's workload unless it
	// names it.
	traceListed := *traceF == "" || *workloads == "" ||
		slices.ContainsFunc(strings.Split(*workloads, ","), func(w string) bool { return strings.TrimSpace(w) == traceName(*traceF) })
	switch {
	case !(*scale > 0) || math.IsInf(*scale, 1):
		return usage("-scale must be a finite number > 0, got %g", *scale)
	case *parallelism < 1:
		return usage("-j must be >= 1, got %d", *parallelism)
	case *shards < 1:
		return usage("-shards must be >= 1, got %d", *shards)
	case *shards > 1 && *traceF == "":
		return usage("-shards > 1 needs -trace (only a trace file's passes run in sections)")
	case *warmup > 0 && *shards == 1:
		// The serial pass has no warm-up phase; silently ignoring the
		// flag would report cold-state metrics as if they were warm.
		return usage("-warmup requires -shards > 1 (the serial pass replays no warm-up)")
	case (set["walkpwc"] || set["walkmem"]) && !walks:
		flagName := "-walkpwc"
		if !set["walkpwc"] {
			flagName = "-walkmem"
		}
		return usage("%s is read only by walkcpi and walkdeltamp, and the run includes neither", flagName)
	case (set["workloads"] || set["trace"]) && !programs:
		flagName := "-workloads"
		if !set["workloads"] {
			flagName = "-trace"
		}
		return usage("%s is not read by phases, multiprog or sharedmem, which build their own streams", flagName)
	case !traceListed:
		return usage("-trace registers the workload %s, which -workloads leaves out, so the run would not read it", traceName(*traceF))
	case *csv && *jsonOut:
		return usage("-csv does not combine with -json")
	case *chart && (*csv || *jsonOut):
		return usage("-chart does not combine with -csv or -json")
	case *chart && len(ids) > 0 && !slices.ContainsFunc(ids, func(id string) bool { _, ok := chartSpec[id]; return ok }):
		return usage("-chart needs a chartable experiment, and the run includes none")
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "paper: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *traceF != "" {
		name, err := registerTrace(ctx, *traceF)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "paper: interrupted")
				return 130
			}
			fmt.Fprintf(stderr, "paper: %v\n", err)
			return 1
		}
		// A trace file stands in for the whole program set unless the
		// user picked an explicit subset.
		if *workloads == "" {
			*workloads = name
		}
	}

	names, err := splitWorkloads(*workloads)
	if err != nil {
		return usage("%v", err)
	}

	// One engine serves every experiment: -j bounds its pool, and it
	// deduplicates passes across experiments.
	var col *obs.Collector
	if *statsF != "" {
		col = obs.NewCollector()
	}
	var observer engine.Observer
	if *progress {
		observer = func(ev engine.Event) {
			tag := ""
			if ev.CacheHit {
				tag = " (cached)"
			}
			fmt.Fprintf(stderr, "  [%d/%d] %s%s\n", ev.Done, ev.Submitted, ev.Key, tag)
		}
	}
	eng := engine.New(*parallelism, engine.WithObserver(observer), engine.WithCollector(col),
		engine.WithSharding(engine.ShardPlan{Shards: *shards, Warmup: *warmup}))
	r := experiments.NewRunner(
		experiments.WithScale(*scale),
		experiments.WithWorkloads(names...),
		experiments.WithCSV(*csv),
		experiments.WithJSON(*jsonOut),
		experiments.WithEngine(eng),
		experiments.WithWalkParams(*walkPWC, *walkMem),
	)

	// RunAll returns the outcomes in request order, so stdout does not
	// depend on -j. Print every successful table and report every
	// failure; one bad experiment must not swallow the others' results.
	start := time.Now()
	outs := r.RunAll(ctx, ids...)
	interrupted := ctx.Err() != nil
	failed, printed := 0, 0
	for i := range outs {
		o := &outs[i]
		var buf bytes.Buffer
		if o.Err == nil {
			o.Err = render(&buf, *o, r.Options(), *chart)
		}
		if o.Err != nil {
			if interrupted && errors.Is(o.Err, context.Canceled) {
				continue // the single "interrupted" notice below covers these
			}
			failed++
			fmt.Fprintf(stderr, "paper: %v\n", o.Err)
			continue
		}
		if printed > 0 {
			fmt.Fprintln(stdout)
		}
		if _, err := buf.WriteTo(stdout); err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			return 1
		}
		printed++
		fmt.Fprintf(stderr, "  [%s in %.1fs at scale %g]\n", o.ID, o.Wall.Seconds(), *scale)
	}

	// The run report is written even for failed or interrupted runs:
	// partial counters are exactly what a post-mortem needs.
	if *statsF != "" {
		rep := obs.New("paper")
		rep.Scale = *scale
		rep.Workloads = names
		rep.Parallelism = *parallelism
		rep.WallMS = time.Since(start).Milliseconds()
		st := eng.Stats()
		rep.Engine = &obs.EngineStats{Submitted: st.Submitted, Done: st.Done, CacheHits: st.CacheHits}
		rep.Totals = col.Totals()
		rep.Passes = col.Passes()
		for _, o := range outs {
			es := obs.ExperimentStatus{ID: o.ID, WallMS: o.Wall.Milliseconds()}
			if o.Err != nil {
				es.Error = o.Err.Error()
			}
			rep.Experiments = append(rep.Experiments, es)
		}
		if err := rep.Write(*statsF, stderr); err != nil {
			fmt.Fprintf(stderr, "paper: %v\n", err)
			if failed == 0 && !interrupted {
				return 1
			}
		}
	}

	switch {
	case interrupted:
		fmt.Fprintln(stderr, "paper: interrupted")
		return 130
	case failed > 0:
		fmt.Fprintf(stderr, "paper: %d of %d experiments failed\n", failed, len(outs))
		return 1
	}
	return 0
}

// splitWorkloads parses the -workloads flag: entries are comma-separated
// with surrounding whitespace trimmed and empty entries dropped, so
// "a, b" and "a,,b" both mean {a, b}. Each name is validated against the
// workload registry up front, naming the offending token instead of
// failing later inside an arbitrary experiment.
func splitWorkloads(s string) ([]string, error) {
	var names []string
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		if _, err := workload.Get(name); err != nil {
			return nil, fmt.Errorf("-workloads: %w", err)
		}
		names = append(names, name)
	}
	return names, nil
}

// traceName is the workload name registerTrace gives the trace file at
// path: trace:<basename>.
func traceName(path string) string {
	return "trace:" + strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

// registerTrace makes a trace file available as a workload named
// traceName(path). The file is opened once (a v2 file memory-mapped, a
// v1 or text file held as its v2 encoding) and shared across all
// concurrent passes.
func registerTrace(ctx context.Context, path string) (string, error) {
	name := traceName(path)
	f, err := trace.OpenFile(ctx, path)
	if err != nil {
		return "", err
	}
	return name, workload.RegisterFile(name, f)
}

// render writes an experiment's table into w as an ASCII chart when
// chart is set and the experiment is chartable, and otherwise in the
// runner's table, CSV or JSON format.
func render(w io.Writer, o experiments.Outcome, opts *experiments.Options, chart bool) error {
	spec, chartable := chartSpec[o.ID]
	if !chart || !chartable {
		return opts.Render(o.Table, w)
	}
	c, err := plot.FromTable(o.Table, o.Title, spec.cat, spec.val)
	if err != nil {
		return fmt.Errorf("%s: %w", o.ID, err)
	}
	c.Log = spec.log
	_, err = c.WriteTo(w)
	return err
}

// Command perfbench is the repository's benchmark. One invocation runs
// one named workload in one process for a fixed time, checks every
// output, and prints its metrics by name and unit, ending with one JSON
// line:
//
//	perfbench --workload pass-two --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host throughput and
// set-up time, both timed against a calibration, and live heap). With
// --trace 1 it instead runs the traced mode, which attributes host time
// to each simulator layer by timing calls into the layers' public
// functions, and writes its spans to --spans-dir. README.md explains the
// workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps the Go scheduler at the two CPUs the benchmark is
// sized for, so runs on bigger hosts stay comparable.
const maxProcs = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	refs     uint64 // references per pass-workload input; the tests shorten it
	goldens  string // directory of the golden tables
	spansDir string // where the traced mode writes spans; "" skips them
	corrupt  int64  // index of an input reference to corrupt; -1 for none
}

// workloads lists the benchmark's workloads in documentation order.
var workloads = []string{"pass-two", "pass-walk-random", "pass-two-sharded", "suite-golden"}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	return report(cfg, stdout, stderr)
}

// report runs cfg and prints its result line, returning the exit code.
func report(cfg config, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	res, err := run(context.Background(), cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{refs: defaultRefs, corrupt: -1}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: pass-two, pass-walk-random, pass-two-sharded or suite-golden")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed of the pass workloads' inputs (suite-golden's seeds are fixed)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "seconds of timed repetitions")
	traced := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	fs.StringVar(&cfg.goldens, "goldens", "testdata/golden", "directory of the golden tables suite-golden checks")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced mode writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = *traced == 1
	switch {
	case fs.NArg() > 0:
		err := fmt.Errorf("unexpected arguments %q", fs.Args())
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cfg, err
	case *traced != 0 && *traced != 1:
		err := fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cfg, err
	case cfg.seconds <= 0:
		err := errors.New("--seconds must be positive")
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return cfg, err
	}
	return cfg, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A bench is one workload's end-to-end loop body.
type bench interface {
	// setup builds the workload's input and returns how long that took.
	// It runs again between repetitions, so that set-up time is sampled
	// across the whole run; a rebuild must reproduce the first input.
	setup(ctx context.Context) (time.Duration, error)
	// rep runs the timed work once. It returns the references simulated,
	// the host time of the work, and a check of the outputs, which runs
	// after the clock stops and keeps the outputs reachable until then.
	rep(ctx context.Context) (refs uint64, d time.Duration, check func() error, err error)
	// trace runs the traced mode for budget, recording spans in tr, and
	// returns the per-layer metrics and the repetitions it ran.
	trace(ctx context.Context, tr *tracer, t *tally, budget time.Duration, log io.Writer) (map[string]float64, int, error)
}

func newBench(cfg config) (bench, error) {
	T := windowFor(cfg.refs)
	switch cfg.workload {
	case "pass-two":
		return newPassBench(cfg, twoStack(T)), nil
	case "pass-walk-random":
		s, err := walkStack(T)
		if err != nil {
			return nil, err
		}
		return newPassBench(cfg, s), nil
	case "pass-two-sharded":
		return newShardBench(cfg), nil
	case "suite-golden":
		return newSuiteBench(cfg.goldens), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
}

func run(ctx context.Context, cfg config, stdout, stderr io.Writer) (result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return result{}, err
	}
	t := &tally{w: stderr}
	var ms map[string]float64
	var reps int
	if cfg.trace {
		ms, reps, err = traced(ctx, cfg, b, t, stderr)
	} else {
		ms, reps, err = endToEnd(ctx, cfg, b, t, stderr)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics()
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: ms[d.name], Unit: d.unit}
	}
	refs, check := cfg.refs, ""
	switch b := b.(type) {
	case *passBench:
		check = "digest=" + b.dig.want
	case *shardBench:
		check = "digest=" + b.dig.want
	case *suiteBench:
		refs, check = b.refs, "goldens="+cfg.goldens
	}
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d go=%s goarch=%s workload=%s seed=%d refs_per_rep=%d reps=%d trace=%t %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH,
		cfg.workload, cfg.seed, refs, reps, cfg.trace, check)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, ms[d.name], d.unit)
	}
	return res, nil
}

// tally counts checked operations against the attempts.
type tally struct {
	attempted, failed int
	w                 io.Writer
}

// record counts one attempt and reports whether it passed. The first
// few failures are described on w.
func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(t.w, "perfbench: %s failed: %v\n", what, err)
	}
	return false
}

// endToEnd runs set-up, one untimed warm-up repetition, and timed
// repetitions for cfg.seconds, repeating set-up after every second
// repetition so that both are sampled across the whole run. Every
// repetition's outputs are checked. Each build and each repetition is
// timed against the calibrations run on either side of it (calib.go).
func endToEnd(ctx context.Context, cfg config, b bench, t *tally, log io.Writer) (map[string]float64, int, error) {
	clk := newClock()
	var heaps []float64
	var refs uint64
	// calibrate starts the next timed work on a collected heap, right
	// after a calibration.
	calibrate := func() {
		runtime.GC()
		clk.calibrate()
	}
	build := func() error {
		calibrate()
		d, err := b.setup(ctx)
		clk.add(&clk.setup, d.Seconds())
		return err
	}
	if err := build(); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	timed(ctx, t, "warm-up repetition", b.rep)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for reps := 0; reps == 0 || time.Now().Before(deadline); reps++ {
		if reps%2 == 1 {
			if err := build(); err != nil {
				return nil, 0, err
			}
		}
		calibrate()
		n, d, check, err := b.rep(ctx)
		if err == nil {
			err = check()
		}
		if !t.record(fmt.Sprintf("repetition %d", reps+1), err) {
			continue
		}
		refs = n
		clk.add(&clk.reps, d.Seconds())
		// The live heap with the input, the outputs and whatever the
		// check closure holds still reachable, less the calibration's
		// tables and this loop's samples, whose storage grows with the
		// repetitions.
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(check)
		own := clk.footprint() + 8*cap(heaps)
		heaps = append(heaps, float64(m.HeapAlloc-uint64(own))/1e6)
	}
	calibrate()
	spread(log, "calibration_s", clk.calibs)
	spread(log, "repetition_s", clk.reps.raw())
	spread(log, "setup_s", clk.setup.raw())
	rate := 0.0
	if secs := clk.seconds(clk.reps); secs > 0 {
		rate = float64(refs) / secs
	}
	return map[string]float64{
		"refs_per_s": rate,
		"setup_s":    clk.seconds(clk.setup),
		"heap_mb":    median(heaps),
	}, len(clk.reps), nil
}

// fastTime is how the traced mode reports a timing. Nothing runs faster
// than the unloaded host, so within a run the fastest samples are the
// least touched by the host's slow phases (calib.go); the fifth
// percentile keeps one lucky sample from deciding.
func fastTime(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.05)
}

// spread prints the distribution of a run's samples on w.
func spread(w io.Writer, name string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	fmt.Fprintf(w, "perfbench: %s over %d samples: min %.6g p5 %.6g median %.6g p95 %.6g max %.6g\n",
		name, len(s), quantile(s, 0), quantile(s, 0.05), quantile(s, 0.5), quantile(s, 0.95), quantile(s, 1))
}

// median returns the middle value (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

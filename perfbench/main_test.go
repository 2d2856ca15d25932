package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var goldenDir = filepath.Join("..", "testdata", "golden")

// testConfig parses args and shortens the pass workloads' inputs to the
// tests' length.
func testConfig(t *testing.T, args ...string) config {
	t.Helper()
	cfg, err := parseFlags(append(args, "--goldens", goldenDir), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg.refs = testRefs
	return cfg
}

// runBench runs the benchmark with args at the tests' input length and
// returns its result line and its whole standard output.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := report(testConfig(t, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return res, stdout.String()
}

// positiveLayerMetrics are the per-layer metrics each workload's traced
// run must report above zero: the counts and times of the layers it
// runs. Differences between ladder rungs are left out, since at the
// tests' length timing noise can swamp a layer.
var positiveLayerMetrics = map[string][]string{
	"pass-two": {
		"trace.decode_ns_per_ref", "trace.bytes_per_ref", "workload.gen_ns_per_ref",
		"policy.events_per_mref", "tlb.hit_ratio", "tlb.invalidations_per_mref",
		"pagetable.faults_per_mref", "core.pass_ns_per_ref", "core.alloc_bytes_per_ref",
	},
	"pass-walk-random": {
		"trace.decode_ns_per_ref", "trace.bytes_per_ref", "workload.gen_ns_per_ref",
		"policy.events_per_mref", "tlb.hit_ratio", "pagetable.faults_per_mref",
		"walk.loads_per_walk", "walk.pwc_hit_ratio", "walk.mem_hit_ratio",
		"core.pass_ns_per_ref", "core.alloc_bytes_per_ref",
	},
	"pass-two-sharded": {
		"trace.decode_ns_per_ref", "trace.bytes_per_ref", "workload.gen_ns_per_ref",
		"tlb.hit_ratio", "core.warm_ns_per_ref", "core.merge_ms",
		"engine.warmup_ref_share", "engine.queue_wait_ms", "engine.shard_imbalance",
	},
	"suite-golden": {
		"workload.gen_ns_per_ref", "policy.events_per_mref", "tlb.hit_ratio",
		"pagetable.faults_per_mref", "core.alloc_bytes_per_ref", "engine.memo_hit_ratio",
	},
}

// TestEveryWorkloadReportsEveryMetric runs every workload briefly in
// both modes. Every output must pass its check, and every metric of the
// mode must appear, by name and unit, in the result line and as a
// printed line.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			t.Run(w+"/trace="+mode, func(t *testing.T) {
				res, out := runBench(t, "--workload", w, "--seconds", "0.01", "--trace", mode)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEndMetrics
				if mode == "1" {
					defs = perLayerMetrics()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v (present %t), want unit %s", d.name, m, ok, d.unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `$`)
					if !line.MatchString(out) {
						t.Errorf("no printed line for %s in %s", d.name, d.unit)
					}
					if mode == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				for _, key := range []string{"nproc=", "gomaxprocs=", "go=go", "goarch=", "seed=", "refs_per_rep=", "reps="} {
					if !strings.Contains(out, " "+key) {
						t.Errorf("environment stamp lacks %s:\n%s", key, out)
					}
				}
				if mode == "0" {
					return
				}
				want := positiveLayerMetrics[w]
				if w == "suite-golden" {
					for _, d := range perLayerMetrics()[len(layerMetrics):] {
						want = append(want, d.name)
					}
				}
				for _, name := range want {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s = %v on %s, want > 0", name, v, w)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceCountsAsFailures moves one input reference to
// another page. Every checked pass must then fail its digest and be
// counted as failed: not ignored, not an error that aborts the run, and
// not a panic.
func TestCorruptReferenceCountsAsFailures(t *testing.T) {
	for _, w := range []string{"pass-two", "pass-walk-random", "pass-two-sharded"} {
		for _, mode := range []string{"0", "1"} {
			t.Run(w+"/trace="+mode, func(t *testing.T) {
				cfg := testConfig(t, "--workload", w, "--seconds", "0.01", "--trace", mode)
				cfg.corrupt = 1000
				var stdout, log bytes.Buffer
				res, err := run(context.Background(), cfg, &stdout, &log)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Correct || res.Failed == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d, want failures", res.Correct, res.Attempted, res.Failed)
				}
				// The traced sharded run also times the serial ladder,
				// which is checked only against its own corrupted input.
				if mode == "0" && res.Failed != res.Attempted {
					t.Errorf("%d of %d repetitions failed, want all", res.Failed, res.Attempted)
				}
				if !strings.Contains(log.String(), "counter digest") {
					t.Errorf("no digest mismatch reported:\n%s", log.String())
				}
			})
		}
	}
}

// TestInputMix checks, on the default seed and one other, that the pass
// workloads' inputs have the mix they were chosen for: pass-two misses
// 1-5% of references in its TLB and promotes pages, pass-walk-random
// misses most references. On the default seed each pass must reproduce
// its pinned digest.
func TestInputMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-length passes")
	}
	ctx := context.Background()
	T := windowFor(defaultRefs)
	walk, err := walkStack(T)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s        stack
		lo, hi   float64 // bounds of the TLB miss ratio
		promotes bool
	}{
		{twoStack(T), 0.01, 0.05, true},
		{walk, 0.5, 1, false},
	}
	for _, seed := range []uint64{defaultSeed, 2} {
		for _, c := range cases {
			spec, err := loadSpec(c.s.spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			f, err := buildInput(ctx, c.s.spec, spec, defaultRefs, -1)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := c.s.full()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(ctx, f.Reader())
			if err != nil {
				t.Fatal(err)
			}
			miss := res.TLBs[0].Stats.MissRatio()
			t.Logf("%s seed %d: miss ratio %.4f, promotions %d", c.s.spec, seed, miss, res.Counters.Promotions)
			if miss < c.lo || miss > c.hi {
				t.Errorf("%s seed %d: miss ratio %.4f outside [%.2f, %.2f]", c.s.spec, seed, miss, c.lo, c.hi)
			}
			if c.promotes && res.Counters.Promotions == 0 {
				t.Errorf("%s seed %d: no promotions", c.s.spec, seed)
			}
			if want := pinned(c.s.spec, seed, defaultRefs); seed == defaultSeed && digest(res) != want {
				t.Errorf("%s seed %d: digest %s, pinned %s", c.s.spec, seed, digest(res), want)
			}
		}
	}
}

// TestRejectsBadArguments checks that a bad invocation, or a checkout
// without the goldens, exits non-zero without printing a result.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "pass-two", "--trace", "2"},
		{"--workload", "pass-two", "--seconds", "0"},
		{"--workload", "pass-two", "stray"},
		{"--workload", "suite-golden", "--goldens", t.TempDir()},
	} {
		var stdout bytes.Buffer
		if code := mainErr(args, &stdout, io.Discard); code == 0 || stdout.Len() > 0 {
			t.Errorf("perfbench %v: exit %d, output %q; want a failure and no output", args, code, stdout.String())
		}
	}
}

// TestClockCancelsHostSpeed checks that each sample is set against the
// calibrations on either side of it, so the same work reads the same
// nominal time in a phase that slows the calibration as much.
func TestClockCancelsHostSpeed(t *testing.T) {
	clk := newClock()
	clk.calibs = []float64{0.010}
	clk.add(&clk.setup, 0.1)
	clk.add(&clk.reps, 0.3)
	clk.calibs = append(clk.calibs, 0.010, 0.020)
	clk.reps = append(clk.reps, sample{secs: 0.45, at: 1}) // across a change of phase
	clk.reps = append(clk.reps, sample{secs: 2 * 0.3, at: 1})
	if got, want := clk.seconds(clk.setup), 0.1/0.010*nominalCalib; math.Abs(got-want) > 1e-12 {
		t.Errorf("setup %v nominal seconds, want %v", got, want)
	}
	if got, want := clk.seconds(clk.reps), 0.3/0.010*nominalCalib; math.Abs(got-want) > 1e-12 {
		t.Errorf("repetition %v nominal seconds, want %v", got, want)
	}
}

package twopage_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one command into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	return buildPkg(t, dir, "./cmd/"+name)
}

// buildPkg compiles the main package at path into dir, naming the
// binary after the path's last element, and returns the binary path.
func buildPkg(t *testing.T, dir, path string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(path))
	cmd := exec.Command("go", "build", "-o", bin, path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", path, err, out)
	}
	return bin
}

func runBin(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// runBinErr runs a binary expecting a non-zero exit, returning the exit
// code and combined output.
func runBinErr(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: succeeded, want non-zero exit\n%s", filepath.Base(bin), args, out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v (not an exit error)\n%s", filepath.Base(bin), args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// End-to-end CLI coverage: every binary builds and performs a small,
// real scenario through its flag surface.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	t.Run("paper", func(t *testing.T) {
		bin := buildCmd(t, dir, "paper")
		out := runBin(t, bin, "-list")
		for _, want := range []string{"table3.1", "fig5.1", "tlbsweep"} {
			if !strings.Contains(out, want) {
				t.Errorf("-list missing %q", want)
			}
		}
		out = runBin(t, bin, "-scale", "0.01", "-workloads", "li", "table3.1")
		if !strings.Contains(out, "li") || !strings.Contains(out, "RPI") {
			t.Errorf("table3.1 output malformed:\n%s", out)
		}
		out = runBin(t, bin, "-scale", "0.01", "-workloads", "li", "-csv", "fig4.2")
		if !strings.HasPrefix(out, "Program,") {
			t.Errorf("csv output malformed:\n%s", out)
		}
		out = runBin(t, bin, "-scale", "0.01", "-workloads", "li", "-chart", "fig5.1")
		if !strings.Contains(out, "#") || !strings.Contains(out, "scale, max") {
			t.Errorf("chart output malformed:\n%s", out)
		}
	})

	t.Run("tracegen-tlbsim-wsssim-traceinfo", func(t *testing.T) {
		gen := buildCmd(t, dir, "tracegen")
		sim := buildCmd(t, dir, "tlbsim")
		wss := buildCmd(t, dir, "wsssim")
		info := buildCmd(t, dir, "traceinfo")

		trc := filepath.Join(dir, "li.trc")
		out := runBin(t, gen, "-workload", "li", "-refs", "50000", "-o", trc)
		if !strings.Contains(out, "wrote 50000 references") {
			t.Errorf("tracegen output: %s", out)
		}
		if _, err := os.Stat(trc); err != nil {
			t.Fatal(err)
		}
		out = runBin(t, sim, "-trace", trc, "-entries", "16", "-two", "-T", "6000")
		if !strings.Contains(out, "CPI_TLB") || !strings.Contains(out, "refs:        50000") {
			t.Errorf("tlbsim output:\n%s", out)
		}
		out = runBin(t, sim, "-workload", "li", "-refs", "50000", "-two", "-wss")
		if !strings.Contains(out, "promotions:") || !strings.Contains(out, "avg WSS") {
			t.Errorf("tlbsim -two output:\n%s", out)
		}
		out = runBin(t, wss, "-workload", "li", "-refs", "50000")
		if !strings.Contains(out, "4KB/32KB") || !strings.Contains(out, "normalized") {
			t.Errorf("wsssim output:\n%s", out)
		}
		out = runBin(t, info, "-trace", trc)
		if !strings.Contains(out, "chunk density") {
			t.Errorf("traceinfo output:\n%s", out)
		}

		// Custom spec pipeline.
		spec := filepath.Join(dir, "w.spec")
		if err := os.WriteFile(spec, []byte("uniform base=1M size=64K weight=1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out = runBin(t, sim, "-spec", spec, "-refs", "30000")
		if !strings.Contains(out, "refs:        30000") {
			t.Errorf("tlbsim -spec output:\n%s", out)
		}
	})

	t.Run("tlbsim-walk", func(t *testing.T) {
		bin := buildCmd(t, dir, "tlbsim")
		out := runBin(t, bin, "-workload", "li", "-refs", "50000", "-two", "-walk")
		for _, want := range []string{"emergent penalty", "walk model:", "PWC:", "mem cache:"} {
			if !strings.Contains(out, want) {
				t.Errorf("tlbsim -walk output missing %q:\n%s", want, out)
			}
		}
		// -walkpwc -1 disables the PWCs, -walkmem -1 the memory-side cache.
		out = runBin(t, bin, "-workload", "li", "-refs", "50000", "-two", "-walk", "-walkpwc", "-1")
		if want := "  PWC:       0 hits / 0 misses (0% hit), 0 flushes\n"; !strings.Contains(out, want) {
			t.Errorf("tlbsim -walkpwc -1 output lacks %q:\n%s", want, out)
		}
		out = runBin(t, bin, "-workload", "li", "-refs", "50000", "-two", "-walk", "-walkmem", "-1")
		if want := "  mem cache: 0 hits / "; !strings.Contains(out, want) {
			t.Errorf("tlbsim -walkmem -1 output lacks %q:\n%s", want, out)
		}
		// -walk without a multi-size policy is a usage error.
		if code, out := runBinErr(t, bin, "-workload", "li", "-refs", "50000", "-walk"); code != 2 || !strings.Contains(out, "-walk needs a multi-size policy") {
			t.Errorf("single-size -walk: exit %d, output:\n%s", code, out)
		}
	})

	// paper's walk knobs reach walkcpi: with the PWCs off the walk
	// column equals the no-PWC column and no walk hits a PWC; with the
	// memory-side cache off no walk load hits it.
	t.Run("paper-walk-knobs", func(t *testing.T) {
		bin := buildCmd(t, dir, "paper")
		// rows maps each program to its walkcpi cells: flat, walk,
		// cyc/walk, no-PWC, pwc-hit%, mem-hit%.
		rows := func(args ...string) map[string][]string {
			out := runBin(t, bin, append([]string{"-scale", "0.01", "-workloads", "li,worm"}, append(args, "walkcpi")...)...)
			got := map[string][]string{}
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) == 7 && (f[0] == "li" || f[0] == "worm") {
					got[f[0]] = f[1:]
				}
			}
			if len(got) != 2 {
				t.Fatalf("walkcpi %v: no li and worm rows:\n%s", args, out)
			}
			return got
		}
		noPWC := rows("-walkpwc", "-1")
		for prog, want := range map[string]string{"li": "0.316", "worm": "1.424"} {
			if c := noPWC[prog]; c[1] != want || c[3] != want || c[4] != "0" {
				t.Errorf("-walkpwc -1 %s: walk %s, no-PWC %s, pwc-hit%% %s; want %s, %s, 0", prog, c[1], c[3], c[4], want, want)
			}
		}
		for prog, c := range rows("-walkmem", "-1") {
			if c[5] != "0" {
				t.Errorf("-walkmem -1 %s: mem-hit%% %s, want 0", prog, c[5])
			}
		}
	})

	// -warmup without -shards > 1 used to be silently ignored: the user
	// believed they measured warm state but got the cold serial pass.
	// All three cmds must reject the combination with exit 2 and name
	// the flag.
	t.Run("warmup-needs-shards", func(t *testing.T) {
		cases := []struct {
			name string
			args []string
		}{
			{"tlbsim", []string{"-workload", "li", "-refs", "50000", "-warmup", "1000"}},
			{"paper", []string{"-scale", "0.01", "-workloads", "li", "-warmup", "1000", "table3.1"}},
			{"wsssim", []string{"-workload", "li", "-refs", "50000", "-warmup", "1000"}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				bin := buildCmd(t, dir, tc.name)
				code, out := runBinErr(t, bin, tc.args...)
				if code != 2 {
					t.Errorf("exit = %d, want 2\n%s", code, out)
				}
				if !strings.Contains(out, "-warmup") {
					t.Errorf("error does not name the -warmup flag:\n%s", out)
				}
			})
		}
	})

	// A bad flag value or combination is a usage error: exit 2 with a
	// message naming the flag. A Go panic also exits 2, so each case
	// also rules out a panic trace, and an undefined flag prints every
	// flag's name, so each case rules that out too; a watchdog turns a
	// hang into a failure. A boolean flag named in a case's name is
	// followed by the flag it does not combine with, if any, and a path
	// by its base name.
	t.Run("bad-flag-values", func(t *testing.T) {
		gen := buildCmd(t, dir, "tracegen")
		v2 := filepath.Join(dir, "li.v2")
		runBin(t, gen, "-workload", "li", "-refs", "20000", "-format", "v2", "-o", v2)
		li := []string{"-workload", "li", "-refs", "20000"}
		bogus := filepath.Join(dir, "bogus.trc")
		cases := []struct {
			cmd, flag string
			args      []string
		}{
			{"tlbsim", "-T", append([]string{"-two", "-T", "-5"}, li...)},
			{"tlbsim", "-threshold", append([]string{"-two", "-threshold", "0"}, li...)},
			{"tlbsim", "-threshold", append([]string{"-two", "-threshold", "99"}, li...)},
			{"tlbsim", "-T", append([]string{"-ladder", "-sizes", "4096,32768", "-T", "-3"}, li...)},
			{"tlbsim", "-pagesize", append([]string{"-pagesize", "5000"}, li...)},
			{"tlbsim", "-T", []string{"-trace", v2, "-shards", "2", "-two", "-T", "-5"}},
			{"tlbsim", "-shards", []string{"-trace", v2, "-shards", "0"}},
			{"tlbsim", "-shards", []string{"-trace", v2, "-shards", "-2"}},
			{"tlbsim", "-shards", append([]string{"-shards", "2"}, li...)},
			{"tlbsim", "-workload", []string{"-workload", "bogus", "-refs", "20000"}},
			{"tlbsim", "-index", append([]string{"-index", "bogus"}, li...)},
			{"tlbsim", "-sizes", append([]string{"-sizes", "4096,abc"}, li...)},
			{"tlbsim", "-ladder", append(li, "-ladder")},
			{"tlbsim", "-wss", append(li, "-wss")},
			{"tlbsim", "-pt", append(li, "-pt")},
			{"tlbsim", "-walk", append(li, "-walk")},
			{"tlbsim", "-entries", append([]string{"-entries", "0"}, li...)},
			{"tlbsim", "-ways", append([]string{"-entries", "16", "-ways", "3"}, li...)},
			{"tlbsim", "-mem", append([]string{"-mem", "17592186044417M"}, li...)},
			{"tlbsim", "-mem", append([]string{"-mem", "1073741824M"}, li...)},
			{"tlbsim", "-mem", append([]string{"-mem", "5000"}, li...)},
			{"tlbsim", "-pt", append([]string{"-pt", "-mem", "256K", "-two"}, li...)},
			{"tlbsim", "-walk", append([]string{"-walk", "-mem", "256K", "-two"}, li...)},
			{"tlbsim", "-shards", []string{"-trace", v2, "-shards", "3", "-mem", "256K"}},
			{"tlbsim", "-pagesize", append([]string{"-pagesize", "8192", "-mem", "256K"}, li...)},
			{"tlbsim", "-ladder", append([]string{"-ladder", "-mem", "256K", "-sizes", "4096,32768,262144"}, li...)},
			{"tlbsim", "-faultcycles", append([]string{"-faultcycles", "500"}, li...)},
			{"tlbsim", "-disk", append(li, "-disk")},
			{"tlbsim", "-disk", append([]string{"-disk", "-faultcycles", "2000", "-mem", "16M"}, li...)},
			{"tlbsim", "-faultcycles", append([]string{"-mem", "16M", "-faultcycles", "-1"}, li...)},
			{"tlbsim", "-T", append([]string{"-mem", "16M", "-two", "-T", "-5"}, li...)},
			// A flag the configuration ignores is a usage error too.
			{"tlbsim", "-threshold", append([]string{"-threshold", "2"}, li...)},
			{"tlbsim", "-threshold", append([]string{"-ladder", "-sizes", "4096,32768,262144", "-threshold", "3"}, li...)},
			{"tlbsim", "-T", append([]string{"-T", "7"}, li...)},
			{"tlbsim", "-pagesize", append([]string{"-two", "-pagesize", "16384"}, li...)},
			{"tlbsim", "-pagesize", append([]string{"-ladder", "-sizes", "4096,32768", "-pagesize", "4096"}, li...)},
			{"tlbsim", "-walkpwc", append([]string{"-two", "-walkpwc", "2"}, li...)},
			{"tlbsim", "-walkmem", append([]string{"-two", "-walkmem", "64"}, li...)},
			{"tlbsim", "-index", append([]string{"-index", "large"}, li...)},
			{"tlbsim", "-index", append([]string{"-entries", "8", "-ways", "8", "-index", "small"}, li...)},
			{"tlbsim", "-index", append([]string{"-ladder", "-sizes", "4096,32768,262144", "-index", "class1"}, li...)},
			{"tlbsim", "-two", append([]string{"-two", "-ladder", "-sizes", "4096,32768"}, li...)},
			{"tlbsim", "-sizes", append([]string{"-two", "-sizes", "4096,65536"}, li...)},
			{"tlbsim", "-sizes", append([]string{"-two", "-sizes", "4096,32768"}, li...)},
			{"tlbsim", "-workload", []string{"-trace", v2, "-workload", "li"}},
			{"tlbsim", "-workload", []string{"-spec", "w.spec", "-workload", "li"}},
			{"tlbsim", "-spec", []string{"-trace", v2, "-spec", "w.spec"}},
			{"paper", "-scale", []string{"-scale", "NaN", "-workloads", "li", "table3.1"}},
			{"paper", "-scale", []string{"-scale", "-1", "-workloads", "li", "table3.1"}},
			{"paper", "-scale", []string{"-scale", "0", "-workloads", "li", "table3.1"}},
			{"paper", "-j", []string{"-scale", "0.01", "-j", "-3", "-workloads", "li", "table3.1"}},
			{"paper", "-shards", []string{"-scale", "0.01", "-shards", "0", "-workloads", "li", "table3.1"}},
			{"paper", "-workloads", []string{"-scale", "0.01", "-workloads", "bogus", "table3.1"}},
			{"paper", "-shards", []string{"-scale", "0.01", "-shards", "2", "-warmup", "100", "-workloads", "li", "table3.1"}},
			{"paper", "-walkpwc", []string{"-scale", "0.01", "-walkpwc", "4", "-workloads", "li", "table3.1"}},
			{"paper", "-walkmem", []string{"-scale", "0.01", "-walkmem", "4096", "-workloads", "li", "table3.1"}},
			{"paper", "-csv", []string{"-scale", "0.01", "-workloads", "li", "-csv", "-json", "table3.1"}},
			{"paper", "-chart", []string{"-scale", "0.01", "-workloads", "li", "-chart", "-csv", "fig4.1"}},
			{"paper", "-chart", []string{"-scale", "0.01", "-workloads", "li", "-chart", "table3.1"}},
			{"paper", "-list", []string{"-list", "-csv"}},
			{"paper", "-list", []string{"-list", "-workloads", "li"}},
			{"paper", "-list", []string{"-list", "table3.1"}},
			{"paper", "-workloads", []string{"-scale", "0.01", "-workloads", "li", "phases"}},
			{"paper", "-workloads", []string{"-scale", "0.01", "-workloads", "li", "multiprog", "sharedmem"}},
			{"paper", "-trace", []string{"-scale", "0.01", "-trace", v2, "phases"}},
			{"paper", "-trace", []string{"-scale", "0.01", "-trace", v2, "-workloads", "worm", "table3.1"}},
			{"wsssim", "-shards", []string{"-trace", v2, "-shards", "0"}},
			{"wsssim", "-shards", []string{"-trace", v2, "-shards", "-2"}},
			{"wsssim", "-shards", append([]string{"-shards", "2"}, li...)},
			{"wsssim", "-sizes", append([]string{"-sizes", "3000"}, li...)},
			{"wsssim", "-sizes", []string{"-trace", v2, "-sizes", "4096,abc"}},
			{"wsssim", "-workload", []string{"-workload", "bogus", "-refs", "20000"}},
			{"wsssim", "-workload", []string{"-refs", "20000"}},
			{"wsssim", "-workload", []string{"-trace", v2, "-workload", "li"}},
			{"tracegen", "-format", []string{"-workload", "li", "-refs", "1000", "-format", "bogus", "-o", bogus}},
			{"tracegen", "-workload", []string{"-workload", "bogus", "-refs", "1000", "-o", bogus}},
			{"tracegen", "-workload", []string{"-refs", "1000", "-o", bogus}},
			{"tracegen", "-workload", []string{"-spec", "w.spec", "-workload", "li", "-o", bogus}},
			{"traceinfo", "-workload", []string{"-workload", "bogus", "-refs", "1000"}},
			{"traceinfo", "-workload", []string{"-refs", "1000"}},
			{"traceinfo", "-workload", []string{"-trace", v2, "-workload", "li"}},
			{"traceinfo", "-all", []string{"-all", "-workload", "li"}},
			{"traceinfo", "-all", []string{"-all", "-trace", v2}},
		}
		bins := map[string]string{}
		bin := func(t *testing.T, name string) string {
			if bins[name] == "" {
				bins[name] = buildCmd(t, dir, name)
			}
			return bins[name]
		}
		for _, tc := range cases {
			name := tc.cmd + tc.flag
			for i, a := range tc.args[:len(tc.args)-1] {
				if a == tc.flag {
					name += "=" + filepath.Base(tc.args[i+1])
				}
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				out, err := exec.CommandContext(ctx, bin(t, tc.cmd), tc.args...).CombinedOutput()
				if ctx.Err() != nil {
					t.Fatalf("%s %v: still running after a minute", tc.cmd, tc.args)
				}
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 2 {
					t.Errorf("%s %v: %v, want exit 2\n%s", tc.cmd, tc.args, err, out)
				}
				if !strings.Contains(string(out), tc.flag) {
					t.Errorf("%s %v: output does not name %s:\n%s", tc.cmd, tc.args, tc.flag, out)
				}
				if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine") {
					t.Errorf("%s %v: panicked:\n%s", tc.cmd, tc.args, out)
				}
				if strings.Contains(string(out), "flag provided but not defined") {
					t.Errorf("%s %v: uses an undefined flag:\n%s", tc.cmd, tc.args, out)
				}
			})
		}
		// tracegen checks -format and its input before it creates the
		// output file.
		if _, err := os.Stat(bogus); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("tracegen -format bogus left %s behind (stat: %v)", bogus, err)
		}
		// The auto window (refs/8) of a tiny trace is one reference, not
		// a zero that the policy constructors reject.
		runBin(t, bin(t, "tlbsim"), "-workload", "li", "-refs", "5", "-two")
		runBin(t, bin(t, "tlbsim"), "-workload", "li", "-refs", "5", "-two", "-mem", "16M")
		runBin(t, bin(t, "wsssim"), "-workload", "li", "-refs", "5")
		// The legal neighbours of the rejected combinations.
		runBin(t, bin(t, "paper"), "-scale", "0.01", "-trace", v2, "-workloads", "worm,trace:li", "table3.1")
		runBin(t, bin(t, "tlbsim"), "-workload", "li", "-refs", "20000", "-sizes", "4096,32768,262144", "-ladder")
	})

	// Minimal decode of a -stats run report: just the fields these
	// smoke tests assert on.
	type report struct {
		Schema string `json:"schema"`
		Tool   string `json:"tool"`
		Totals struct {
			Passes uint64 `json:"passes"`
			Refs   uint64 `json:"refs"`
		} `json:"totals"`
		Passes []struct {
			Key string `json:"key"`
		} `json:"passes"`
	}
	readReport := func(t *testing.T, path string) report {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("%s: invalid report JSON: %v\n%s", path, err, b)
		}
		if r.Schema != "twopage.run-report/v1" {
			t.Errorf("%s: schema = %q", path, r.Schema)
		}
		return r
	}

	// traceFiles writes the first refs references of li once in each
	// trace format and returns the paths, v2 first.
	traceFiles := func(t *testing.T, base, refs string) []string {
		t.Helper()
		gen := buildCmd(t, dir, "tracegen")
		var paths []string
		for _, format := range []string{"v2", "binary", "text"} {
			path := filepath.Join(dir, base+"."+format)
			runBin(t, gen, "-workload", "li", "-refs", refs, "-format", format, "-o", path)
			paths = append(paths, path)
		}
		return paths
	}
	wallMS := regexp.MustCompile(`(?m)^.*"wall_ms":.*\n`)

	t.Run("tlbsim-stats", func(t *testing.T) {
		bin := buildCmd(t, dir, "tlbsim")
		rep := filepath.Join(dir, "tlbsim-report.json")
		runBin(t, bin, "-workload", "li", "-refs", "50000", "-stats", rep)
		r := readReport(t, rep)
		if r.Tool != "tlbsim" {
			t.Errorf("tool = %q", r.Tool)
		}
		if r.Totals.Refs != 50000 {
			t.Errorf("totals.refs = %d, want 50000", r.Totals.Refs)
		}
		if len(r.Passes) != 1 {
			t.Errorf("passes = %d entries, want 1", len(r.Passes))
		}
	})

	t.Run("wsssim-stats", func(t *testing.T) {
		bin := buildCmd(t, dir, "wsssim")
		rep := filepath.Join(dir, "wsssim-report.json")
		runBin(t, bin, "-workload", "li", "-refs", "50000", "-stats", rep)
		r := readReport(t, rep)
		if r.Tool != "wsssim" {
			t.Errorf("tool = %q", r.Tool)
		}
		// One static pass plus the two-size pass.
		if r.Totals.Passes != 2 || len(r.Passes) != 2 {
			t.Errorf("passes = %d (totals %d), want 2", len(r.Passes), r.Totals.Passes)
		}
		if r.Totals.Refs != 100000 {
			t.Errorf("totals.refs = %d, want 100000 (two 50000-ref passes)", r.Totals.Refs)
		}
	})

	// The sharded static pass merges exactly, so wsssim -shards N must
	// print what the serial pass prints and report the same counters,
	// whatever the trace's format.
	t.Run("wsssim-shards", func(t *testing.T) {
		bin := buildCmd(t, dir, "wsssim")
		for _, trc := range traceFiles(t, "li-shards", "200000") {
			run := func(shards string) (stdout, report string) {
				rep := filepath.Join(dir, "wsssim-shards"+shards+".json")
				stdout = runBin(t, bin, "-trace", trc, "-shards", shards, "-stats", rep)
				b, err := os.ReadFile(rep)
				if err != nil {
					t.Fatal(err)
				}
				return stdout, wallMS.ReplaceAllString(string(b), "")
			}
			wantOut, wantRep := run("1")
			if !strings.Contains(wantOut, "4KB/32KB") || !strings.Contains(wantRep, `"wss-static w=`) {
				t.Fatalf("%s: serial run malformed:\n%s\n%s", filepath.Base(trc), wantOut, wantRep)
			}
			for _, n := range []string{"2", "3", "8"} {
				gotOut, gotRep := run(n)
				if gotOut != wantOut {
					t.Errorf("%s -shards %s stdout differs from -shards 1:\n got:\n%s\nwant:\n%s", filepath.Base(trc), n, gotOut, wantOut)
				}
				if gotRep != wantRep {
					t.Errorf("%s -shards %s report differs from -shards 1:\n got:\n%s\nwant:\n%s", filepath.Base(trc), n, gotRep, wantRep)
				}
			}
		}
	})

	// -refs truncates a trace input like a generated one, serial or
	// sharded and in every format: each command simulates, analyses and
	// reports the requested count.
	t.Run("trace-refs", func(t *testing.T) {
		sim := buildCmd(t, dir, "tlbsim")
		wss := buildCmd(t, dir, "wsssim")
		info := buildCmd(t, dir, "traceinfo")
		for _, trc := range traceFiles(t, "li-refs", "20000") {
			name := filepath.Base(trc)
			for _, shards := range []string{"1", "2"} {
				out := runBin(t, sim, "-trace", trc, "-refs", "1000", "-shards", shards, "-two")
				if !strings.Contains(out, "refs:        1000 ") {
					t.Errorf("tlbsim %s -shards %s -refs 1000:\n%s", name, shards, out)
				}
				rep := filepath.Join(dir, "wsssim-refs"+shards+".json")
				runBin(t, wss, "-trace", trc, "-refs", "1000", "-shards", shards, "-stats", rep)
				if r := readReport(t, rep); r.Totals.Refs != 2000 {
					t.Errorf("wsssim %s -shards %s -refs 1000: totals.refs = %d, want 2000 (two 1000-ref passes)", name, shards, r.Totals.Refs)
				}
			}
			if out := runBin(t, info, "-trace", trc, "-refs", "1000"); !strings.Contains(out, "references:      1000 ") {
				t.Errorf("traceinfo %s -refs 1000:\n%s", name, out)
			}
			// A -refs longer than the trace reads the whole trace, and
			// the auto window T = refs/8 counts only what was read.
			if out := runBin(t, wss, "-trace", trc, "-refs", "10000000"); !strings.HasPrefix(out, "T = 2500 references\n") {
				t.Errorf("wsssim %s -refs 10000000 on 20000 references:\n%s", name, out)
			}
		}
	})

	// The format of a trace file does not change the answer: the v2, v1
	// and text encodings of one trace give the same window, stdout and,
	// but for the path, run report, serial or sharded; and paper shards
	// a v1 trace as it shards a v2 one.
	t.Run("trace-formats", func(t *testing.T) {
		sim := buildCmd(t, dir, "tlbsim")
		wss := buildCmd(t, dir, "wsssim")
		paper := buildCmd(t, dir, "paper")
		files := traceFiles(t, "li-formats", "50000")
		run := func(bin, trc string, args []string) (stdout, report string) {
			rep := filepath.Join(dir, "formats.json")
			stdout = runBin(t, bin, append([]string{"-trace", trc, "-stats", rep}, args...)...)
			b, err := os.ReadFile(rep)
			if err != nil {
				t.Fatal(err)
			}
			return stdout, strings.ReplaceAll(wallMS.ReplaceAllString(string(b), ""), trc, "TRACE")
		}
		for _, shards := range []string{"1", "2", "3"} {
			for _, tc := range []struct {
				bin  string
				args []string
			}{
				{sim, []string{"-two", "-shards", shards}},
				{wss, []string{"-shards", shards}},
			} {
				wantOut, wantRep := run(tc.bin, files[0], tc.args)
				for _, trc := range files[1:] {
					if gotOut, gotRep := run(tc.bin, trc, tc.args); gotOut != wantOut || gotRep != wantRep {
						t.Errorf("%s %s %v differs from the v2 file:\n got:\n%s%s\nwant:\n%s%s",
							filepath.Base(tc.bin), filepath.Base(trc), tc.args, gotOut, gotRep, wantOut, wantRep)
					}
				}
			}
		}
		rep := filepath.Join(dir, "paper-v1.json")
		runBin(t, paper, "-trace", files[1], "-shards", "2", "-stats", rep, "fig5.1")
		sharded := 0
		for _, p := range readReport(t, rep).Passes {
			if strings.Contains(p.Key, " shards=2 ") {
				sharded++
			}
		}
		if sharded == 0 {
			t.Errorf("paper -trace %s -shards 2 recorded no shards=2 pass", filepath.Base(files[1]))
		}
	})

	// SIGINT must produce a one-line notice and conventional exit 130,
	// not a raw "context canceled" error with exit 1.
	t.Run("paper-sigint", func(t *testing.T) {
		bin := buildCmd(t, dir, "paper")
		cmd := exec.Command(bin, "-scale", "1", "-j", "2", "all")
		var out strings.Builder
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Give the run time to get into the simulation loop, then
		// interrupt it; a watchdog kill bounds a hung process.
		time.Sleep(700 * time.Millisecond)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("paper did not exit within 30s of SIGINT")
		}
		if code := cmd.ProcessState.ExitCode(); code != 130 {
			t.Errorf("exit after SIGINT = %d, want 130\n%s", code, out.String())
		}
		if !strings.Contains(out.String(), "paper: interrupted") {
			t.Errorf("missing interrupted notice:\n%s", out.String())
		}
		if strings.Contains(out.String(), "context canceled") {
			t.Errorf("raw context error leaked to user:\n%s", out.String())
		}
	})

	// The memory stage over a trace file answers as over the generated
	// workload it was written from, and its counters reach the run
	// report.
	t.Run("tlbsim-mem", func(t *testing.T) {
		bin := buildCmd(t, dir, "tlbsim")
		trc := filepath.Join(dir, "li-mem.v2")
		runBin(t, buildCmd(t, dir, "tracegen"), "-workload", "li", "-refs", "100000", "-format", "v2", "-o", trc)
		args := []string{"-mem", "256K", "-two"}
		rep := filepath.Join(dir, "tlbsim-mem.json")
		want := runBin(t, bin, append([]string{"-workload", "li", "-refs", "100000", "-stats", rep}, args...)...)
		if got := runBin(t, bin, append([]string{"-trace", trc}, args...)...); got != want {
			t.Errorf("tlbsim -mem over a v2 trace differs from the generated workload:\n got:\n%s\nwant:\n%s", got, want)
		}
		b, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		var r struct {
			Totals map[string]uint64 `json:"totals"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("%s: %v", rep, err)
		}
		for _, key := range []string{"faults", "evictions", "buddy_splits", "buddy_coalesces", "buddy_peak_resident"} {
			if r.Totals[key] == 0 {
				t.Errorf("tlbsim -mem -stats: totals.%s = %d, want > 0\n%s", key, r.Totals[key], b)
			}
		}
	})

	// The memory stage's whole report, byte for byte, on configurations
	// that evict pages of both sizes, price faults with the disk model,
	// use a set-associative TLB and a non-default fault cost. Rewrite
	// testdata/tlbsim with -update after an intentional output change.
	t.Run("tlbsim-mem-golden", func(t *testing.T) {
		bin := buildCmd(t, dir, "tlbsim")
		cases := []struct {
			name string
			args []string
		}{
			{"li-256K-two", []string{"-workload", "li", "-refs", "100000", "-mem", "256K", "-two"}},
			{"matrix300-512K", []string{"-workload", "matrix300", "-refs", "100000", "-mem", "512K"}},
			{"li-128K-two-disk", []string{"-workload", "li", "-refs", "100000", "-mem", "128K", "-two", "-disk"}},
			{"li-128K-disk", []string{"-workload", "li", "-refs", "100000", "-mem", "128K", "-disk"}},
			{"espresso-256K-2way-two", []string{"-workload", "espresso", "-refs", "100000", "-mem", "256K", "-entries", "32", "-ways", "2", "-two"}},
			{"worm-512K-fault2000-two", []string{"-workload", "worm", "-refs", "100000", "-mem", "512K", "-faultcycles", "2000", "-two"}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				got, err := exec.Command(bin, tc.args...).Output()
				if err != nil {
					t.Fatalf("tlbsim %v: %v", tc.args, err)
				}
				path := filepath.Join("testdata", "tlbsim", tc.name+".txt")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("tlbsim %v drifted from %s:\n got:\n%s\nwant:\n%s", tc.args, path, got, want)
				}
			})
		}
	})

	// Every example builds, exits 0 and prints its headline. go build
	// only compiles them; this runs them.
	t.Run("examples", func(t *testing.T) {
		cases := []struct{ name, want string }{
			{"customworkload", "== db workload: CPI_TLB, 16-entry fully associative =="},
			{"indexing", "== Figure 2.1: one 32KB page vs a small-page-indexed TLB =="},
			{"matrix", "matrix300: CPI_TLB vs memory cost (16-entry TLBs)"},
			{"multiprog", "Each slice evicts the other processes' entries before they run again,"},
			{"promotion", "handlers:   single-size miss 20 cycles, two-size 25 cycles (the paper's 20/25 model)"},
			{"quickstart", "matrix300, 16-entry fully associative TLB"},
		}
		exdir := filepath.Join(dir, "examples")
		if err := os.MkdirAll(exdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				out := runBin(t, buildPkg(t, exdir, "./examples/"+tc.name))
				if !strings.Contains(out, tc.want+"\n") {
					t.Errorf("example %s: output missing line %q:\n%s", tc.name, tc.want, out)
				}
			})
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"twopage/internal/experiments"
	"twopage/internal/obs"
	"twopage/internal/plot"
)

var update = flag.Bool("update", false, "rewrite the run-report golden file")

// Every chartSpec entry must reference an existing experiment and
// columns that exist in its table; the chart must build and carry
// numeric data. Guards against column drift when experiments evolve.
func TestChartSpecsMatchTables(t *testing.T) {
	for id, spec := range chartSpec {
		e, err := experiments.Get(id)
		if err != nil {
			t.Errorf("chartSpec references unknown experiment %q", id)
			continue
		}
		tbl, err := e.Run(context.Background(),
			experiments.NewOptions(experiments.WithScale(0.01), experiments.WithWorkloads("li")))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		heads := tbl.Headers()
		for _, c := range append(append([]int{}, spec.cat...), spec.val...) {
			if c < 0 || c >= len(heads) {
				t.Errorf("%s: column %d out of range (%d headers)", id, c, len(heads))
			}
		}
		chart, err := plot.FromTable(tbl, e.Title, spec.cat, spec.val)
		if err != nil {
			t.Errorf("%s: chart build failed: %v", id, err)
			continue
		}
		// The value columns must actually be numeric in at least one row.
		numeric := false
		for r := 0; r < tbl.Rows() && !numeric; r++ {
			for _, vc := range spec.val {
				if _, err := strconv.ParseFloat(strings.TrimSpace(tbl.Cell(r, vc)), 64); err == nil {
					numeric = true
					break
				}
			}
		}
		if !numeric {
			t.Errorf("%s: no numeric values in declared chart columns", id)
		}
		var sb strings.Builder
		if _, err := chart.WriteTo(&sb); err != nil {
			t.Errorf("%s: chart render failed: %v", id, err)
		}
	}
}

// runPaper drives the whole command in-process and returns its exit
// code plus captured stdout/stderr.
func runPaper(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// maskReport drops the only run-dependent lines of a report — wall
// times and the parallelism level — leaving the deterministic counter
// sections intact.
var runDependent = regexp.MustCompile(`"(wall_ms|parallelism)":`)

func maskReport(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if runDependent.MatchString(l) {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestRunReportGolden pins the -stats JSON schema: the masked report
// for a fixed scale/workload/experiment must match the blessed golden
// byte-for-byte. Run with -update after an intentional schema change.
func TestRunReportGolden(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "report.json")
	code, stdout, stderr := runPaper(t,
		"-scale", "0.01", "-workloads", "li", "-j", "1", "-stats", rep, "table3.1")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "RPI") {
		t.Errorf("table output missing from stdout:\n%s", stdout)
	}
	raw, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded obs.Report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if decoded.Schema != obs.Schema {
		t.Errorf("schema = %q, want %q", decoded.Schema, obs.Schema)
	}
	got := maskReport(string(raw))
	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/paper -run TestRunReportGolden -update` to bless)", err)
	}
	if got != string(want) {
		t.Errorf("masked report drifted from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// maskTimings hides the designspace experiment's wall-clock ratio and
// the padding after it, the one time-dependent cell of any table.
var maskTimings = regexp.MustCompile(`\d+\.\d+x *`)

// TestRunReportParallelismInvariant asserts the tentpole guarantee:
// stdout and the counter sections of the report are byte-identical
// across -j values.
func TestRunReportParallelismInvariant(t *testing.T) {
	dir := t.TempDir()
	reports, stdouts := make([]string, 2), make([]string, 2)
	for i, j := range []string{"1", "8"} {
		rep := filepath.Join(dir, "report-j"+j+".json")
		code, stdout, stderr := runPaper(t,
			"-scale", "0.01", "-workloads", "li,worm", "-j", j, "-stats", rep,
			"table3.1", "fig4.2", "tlbsweep")
		if code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", j, code, stderr)
		}
		raw, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = maskReport(string(raw))
		stdouts[i] = maskTimings.ReplaceAllString(stdout, "T")
	}
	if reports[0] != reports[1] {
		t.Errorf("masked reports differ between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s",
			reports[0], reports[1])
	}
	if stdouts[0] == "" || stdouts[0] != stdouts[1] {
		t.Errorf("stdout differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s",
			stdouts[0], stdouts[1])
	}
}

// TestFailingExperimentKeepsProfileAndOutput is the regression test for
// the os.Exit-mid-main bug: a failing experiment must still flush a
// valid CPU profile, print the successful tables, and exit 1.
func TestFailingExperimentKeepsProfileAndOutput(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	code, stdout, stderr := runPaper(t,
		"-scale", "0.01", "-workloads", "li", "-cpuprofile", prof,
		"table3.1", "nosuchexp")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "RPI") {
		t.Errorf("successful table missing from stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, `unknown experiment "nosuchexp"`) {
		t.Errorf("stderr does not name the failed experiment:\n%s", stderr)
	}
	if !strings.Contains(stderr, "1 of 2 experiments failed") {
		t.Errorf("stderr missing failure summary:\n%s", stderr)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatalf("CPU profile not written: %v", err)
	}
	// A flushed pprof profile is gzip-compressed protobuf; a truncated
	// one (the old bug) is empty.
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("CPU profile invalid: %d bytes, magic %x", len(b), b[:min(2, len(b))])
	}
}

// A failing experiment must also leave the -stats report intact, with
// the failure recorded per experiment.
func TestFailingExperimentStillWritesReport(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "report.json")
	code, _, _ := runPaper(t,
		"-scale", "0.01", "-workloads", "li", "-stats", rep, "table3.1", "nosuchexp")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	raw, err := os.ReadFile(rep)
	if err != nil {
		t.Fatalf("report not written on failure: %v", err)
	}
	var decoded obs.Report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if len(decoded.Experiments) != 2 {
		t.Fatalf("experiments = %d entries, want 2", len(decoded.Experiments))
	}
	if decoded.Experiments[0].Error != "" {
		t.Errorf("table3.1 recorded error %q, want none", decoded.Experiments[0].Error)
	}
	if !strings.Contains(decoded.Experiments[1].Error, "nosuchexp") {
		t.Errorf("nosuchexp error not recorded: %+v", decoded.Experiments[1])
	}
	if decoded.Totals.Refs == 0 {
		t.Error("partial counters missing from failed-run report")
	}
}

func TestSplitWorkloads(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string
		wantErr string
	}{
		{"", nil, ""},
		{"li", []string{"li"}, ""},
		{" li , worm ", []string{"li", "worm"}, ""},
		{"li,,worm", []string{"li", "worm"}, ""},
		{" , ,", nil, ""},
		{"li,bogus,worm", nil, `"bogus"`},
	} {
		got, err := splitWorkloads(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("splitWorkloads(%q) err = %v, want mention of %s", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("splitWorkloads(%q): %v", tc.in, err)
			continue
		}
		if strings.Join(got, "|") != strings.Join(tc.want, "|") {
			t.Errorf("splitWorkloads(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Bad -workloads tokens are a usage error: exit 2, before any
// experiment runs.
func TestBadWorkloadFlagFailsFast(t *testing.T) {
	code, stdout, stderr := runPaper(t, "-scale", "0.01", "-workloads", "li,,bogus", "table3.1")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("stdout not empty on flag error:\n%s", stdout)
	}
	if !strings.Contains(stderr, `-workloads`) || !strings.Contains(stderr, `"bogus"`) {
		t.Errorf("error does not name flag and token:\n%s", stderr)
	}
}

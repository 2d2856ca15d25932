// Command paperlint runs the repository's invariant analyzers (package
// twopage/internal/analysis) over the module and reports violations in
// vet style, one file:line:col line per finding, or as a JSON array
// with -json. It exits 1 when any diagnostic survives suppression and
// 2 on internal failure, so `make verify` and CI can gate on it.
//
// Scope follows the invariants, not the directory tree:
//
//   - determinism runs on the packages reachable from the experiment
//     and table-rendering roots (internal/experiments,
//     internal/tableio), because only code feeding rendered output can
//     break byte-identical tables;
//   - ctxcheck runs on the simulation drivers (internal/core,
//     internal/engine) that own reference-drain loops;
//   - errfmt runs on the I/O boundary (internal/trace,
//     internal/workload);
//   - oneloop runs on internal/experiments, the package whose tasks
//     would otherwise keep private per-reference loops beside core's;
//   - hotalloc and powtwo run everywhere: hot annotations and
//     power-of-two construction sites may appear in any package;
//   - mergecheck, keycheck and deprcheck run everywhere: merge-shaped
//     stats methods, memo-key builders and deprecated identifiers are
//     matched structurally, not by directory;
//   - staleignore findings (suppression directives that suppressed
//     nothing across the whole run) are appended at the end.
//
// Interprocedural facts — the static call graph, field-use sets and
// the deprecation index — are built once over every loaded package, so
// an allocation two calls below a //paperlint:hot function, or a
// counter handled only by a helper the Merge method calls, is resolved
// across package boundaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"twopage/internal/analysis"
	"twopage/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	dir := fs.String("dir", ".", "module directory to analyze")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paperlint [-json] [-dir module] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := load.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "paperlint: %v\n", err)
		return 2
	}
	diags := Lint(res)
	Relativize(diags, *dir)
	if err := Render(stdout, diags, *jsonOut); err != nil {
		fmt.Fprintf(stderr, "paperlint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// determinismRoots are the packages whose output must be byte-identical
// run to run; determinism covers them and everything they (transitively)
// import within the module.
var determinismRoots = []string{
	"twopage/internal/experiments",
	"twopage/internal/tableio",
}

// ctxScope holds the simulation-driver packages bound by the
// cancellation contract.
var ctxScope = map[string]bool{
	"twopage/internal/core":   true,
	"twopage/internal/engine": true,
}

// errScope holds the I/O boundary packages bound by the error-handling
// conventions.
var errScope = map[string]bool{
	"twopage/internal/trace":    true,
	"twopage/internal/workload": true,
}

// oneLoopScope holds the packages whose policy, TLB and working-set
// work must run through core's per-reference loop.
var oneLoopScope = map[string]bool{
	"twopage/internal/engine":      true,
	"twopage/internal/experiments": true,
}

// Lint applies the scoped analyzer suite to every loaded package and
// returns the surviving diagnostics in stable order. Whole-program
// facts (call graph, field uses, deprecation index) and the
// suppression table are built once over every loaded package, so the
// interprocedural analyzers see across package boundaries and
// //paperlint:ignore usage is tracked run-wide; directives that
// suppressed nothing anywhere are appended as staleignore findings.
func Lint(res *load.Result) []analysis.Diagnostic {
	var (
		det   = analysis.Determinism()
		hot   = analysis.HotAlloc()
		pow   = analysis.PowTwo(analysis.DefaultPowTwoConfig())
		ctx   = analysis.CtxCheck()
		errf  = analysis.ErrFmt()
		merge = analysis.MergeCheck()
		key   = analysis.KeyCheck()
		depr  = analysis.DeprCheck()
		one   = analysis.OneLoop(analysis.DefaultOneLoopConfig())
	)
	prog := analysis.NewProgram(res.Fset, res.Info)
	supp := analysis.NewSuppressions(res.Fset)
	for _, p := range res.Pkgs {
		prog.AddPackage(p.Types, p.Files)
		supp.AddFiles(p.Files...)
	}
	detScope := determinismScope(res.Pkgs)
	var out []analysis.Diagnostic
	for _, p := range res.Pkgs {
		suite := []*analysis.Analyzer{hot, pow, merge, key, depr}
		if detScope[p.ImportPath] {
			suite = append(suite, det)
		}
		if ctxScope[p.ImportPath] {
			suite = append(suite, ctx)
		}
		if errScope[p.ImportPath] {
			suite = append(suite, errf)
		}
		if oneLoopScope[p.ImportPath] {
			suite = append(suite, one)
		}
		ds, err := analysis.RunPkg(prog, supp, p.Types, p.Files, suite)
		if err != nil {
			// Analyzer-internal errors are programming bugs; surface them
			// as diagnostics so the run still fails loudly.
			out = append(out, analysis.Diagnostic{
				Analyzer: "paperlint",
				Message:  err.Error(),
			})
			continue
		}
		out = append(out, ds...)
	}
	out = append(out, supp.Stale()...)
	analysis.Sort(out)
	return out
}

// determinismScope returns the module packages reachable from the
// determinism roots, roots included.
func determinismScope(pkgs []*load.Package) map[string]bool {
	inModule := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		inModule[p.ImportPath] = true
	}
	roots := map[string]bool{}
	for _, r := range determinismRoots {
		roots[r] = true
	}
	scope := map[string]bool{}
	for _, p := range pkgs {
		if !roots[p.ImportPath] {
			continue
		}
		scope[p.ImportPath] = true
		for d := range p.Deps {
			if inModule[d] {
				scope[d] = true
			}
		}
	}
	return scope
}

// Relativize rewrites diagnostic file paths relative to dir for
// readable, location-independent output.
func Relativize(diags []analysis.Diagnostic, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(abs, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// jsonDiag is the stable machine-readable serialization of one
// diagnostic; field names and order are part of the tool's interface.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Render writes diagnostics as vet-style lines, or as an indented JSON
// array when jsonOut is set (an empty run renders as []).
func Render(w io.Writer, diags []analysis.Diagnostic, jsonOut bool) error {
	if !jsonOut {
		for _, d := range diags {
			if _, err := fmt.Fprintln(w, d.String()); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools go/analysis model, carrying the analyzers that
// mechanically enforce this repository's invariants:
//
//   - determinism: no map iteration, wall-clock reads or global
//     math/rand in packages that feed rendered experiment output (the
//     golden corpus and the j1-vs-j8 tests depend on byte-identical
//     tables at any parallelism);
//   - hotalloc: no allocation-inducing constructs inside functions
//     annotated //paperlint:hot (the decode/simulate loops that the
//     AllocsPerRun==0 tests pin to zero steady-state allocations), nor
//     inside the static callees such functions reach — the call graph
//     closes the "alloc hidden one call down" hole;
//   - powtwo: page sizes and TLB/cache geometries that reach
//     constructors as constants must be aligned powers of two, the
//     paper's standing assumption (Section 1: "pages aligned and
//     power-of-two sized");
//   - ctxcheck: unbounded reference-processing loops in the simulation
//     drivers must poll their context (the PR 1 cancellation contract:
//     a check at least once per batch);
//   - errfmt: errors wrapped with fmt.Errorf must use %w, and error
//     returns must not be silently dropped in the trace/workload I/O
//     paths;
//   - mergecheck: every Merge/Sub/Add-shaped stats method must
//     reference every counter field of its struct, so the intra-trace
//     sharded merge cannot silently drop a newly added counter
//     (//paperlint:gauge opts a state field out, with a reason);
//   - keycheck: every Key-shaped method feeding the engine memo cache
//     must reference every field of its config struct (and of the
//     nested module config structs it embeds in the key), so two
//     configurations differing only in a new knob cannot collide in
//     the cache;
//   - deprcheck: no use of a declaration carrying the conventional
//     "Deprecated:" doc marker outside its defining package;
//   - oneloop: no page-size policy Assign or TLB Access call in the
//     experiments outside core's per-reference loop, unless the loop
//     carries a reason (a private copy of the loop drifts from core).
//
// The model mirrors x/tools deliberately — Analyzer with a Run func,
// Pass carrying files and type information, Reportf for diagnostics —
// so the suite can migrate to the real framework wholesale if the
// dependency ever becomes available. Only the stdlib go/ast, go/token
// and go/types packages are used. Interprocedural analyzers consume a
// Program (call graph, field-use facts, deprecation index) built once
// over all loaded packages.
//
// # Suppression
//
// A comment of the form
//
//	//paperlint:ignore analyzer[,analyzer...] reason
//
// suppresses the named analyzers. Placed in the file header (before or
// attached to the package clause) it suppresses them for the whole
// file; placed on or immediately above an offending line it suppresses
// diagnostics on that line only. The reason text is free-form but
// should say why the construct is safe (e.g. "order-independent
// uint64 sum"). Suppressions are tracked: a directive that suppresses
// nothing in a whole run is itself reported (analyzer "staleignore"),
// so justified ignores cannot rot silently after the code they excuse
// is fixed or deleted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position // resolved file:line:col
	Analyzer string         // analyzer name
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check. Run inspects the Pass's package and
// reports findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //paperlint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. A non-nil error aborts the whole lint run
	// (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog holds whole-program facts (call graph, field uses,
	// deprecation index) spanning every loaded package.
	Prog *Program
	// Supp is the run-wide suppression table; analyzers that pre-filter
	// findings outside the normal report path (interprocedural hotalloc
	// honoring a callee-local ignore) must consult it so directive
	// usage is tracked.
	Supp *Suppressions

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces every paperlint comment directive.
const directivePrefix = "//paperlint:"

// StaleIgnoreName is the analyzer name under which unused
// //paperlint:ignore directives are reported.
const StaleIgnoreName = "staleignore"

// directive is one parsed //paperlint:ignore comment.
type directive struct {
	pos      token.Position
	names    []string
	nameSet  map[string]bool
	fileWide bool
	used     bool
}

// fileSupp holds one file's directives plus the line lookup table (a
// line-scoped directive applies to its own line and the line below, so
// it can trail the offending statement or sit on its own line above).
type fileSupp struct {
	directives []*directive
	fileWide   []*directive
	byLine     map[int][]*directive
}

// Suppressions is the run-wide //paperlint:ignore table. It records
// which directives actually suppressed a diagnostic, so the driver can
// report the stale remainder after all analyzers have run.
type Suppressions struct {
	fset  *token.FileSet
	files map[string]*fileSupp
}

// NewSuppressions returns an empty suppression table.
func NewSuppressions(fset *token.FileSet) *Suppressions {
	return &Suppressions{fset: fset, files: map[string]*fileSupp{}}
}

// AddFiles parses the //paperlint:ignore directives of the given files
// into the table. Header placement (any comment line before or on the
// package clause line) makes a directive file-wide.
func (s *Suppressions) AddFiles(files ...*ast.File) {
	for _, f := range files {
		fs := &fileSupp{byLine: map[int][]*directive{}}
		pkgLine := s.fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix+"ignore")
				if !ok {
					continue
				}
				names := parseAnalyzerList(rest)
				if len(names) == 0 {
					continue
				}
				d := &directive{pos: s.fset.Position(c.Pos()), names: names, nameSet: map[string]bool{}}
				for _, n := range names {
					d.nameSet[n] = true
				}
				fs.directives = append(fs.directives, d)
				if d.pos.Line <= pkgLine {
					d.fileWide = true
					fs.fileWide = append(fs.fileWide, d)
					continue
				}
				for _, target := range []int{d.pos.Line, d.pos.Line + 1} {
					fs.byLine[target] = append(fs.byLine[target], d)
				}
			}
		}
		s.files[s.fset.Position(f.Package).Filename] = fs
	}
}

// Suppressed reports whether a diagnostic of the named analyzer at pos
// is suppressed, marking every matching directive as used.
func (s *Suppressions) Suppressed(analyzer string, pos token.Position) bool {
	fs := s.files[pos.Filename]
	if fs == nil {
		return false
	}
	hit := false
	for _, d := range fs.fileWide {
		if d.nameSet[analyzer] {
			d.used = true
			hit = true
		}
	}
	for _, d := range fs.byLine[pos.Line] {
		if d.nameSet[analyzer] {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Stale returns one diagnostic per directive that suppressed nothing,
// in stable position order. Call it after every analyzer has run on
// every package; a directive naming an analyzer that no longer fires on
// its line is dead weight whose justification no longer matches the
// code, and must be fixed or deleted.
func (s *Suppressions) Stale() []Diagnostic {
	var out []Diagnostic
	for _, fs := range s.files {
		for _, d := range fs.directives {
			if d.used {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Analyzer: StaleIgnoreName,
				Message: fmt.Sprintf("//paperlint:ignore %s suppresses no finding; fix or delete the stale directive",
					strings.Join(d.names, ",")),
			})
		}
	}
	Sort(out)
	return out
}

// parseAnalyzerList extracts analyzer names from the text after
// "//paperlint:ignore": the first whitespace-delimited field is a
// comma-separated list of analyzer names; everything after it is the
// free-form reason. A field containing anything but lowercase names
// yields no suppression at all, so a typo fails loudly (the diagnostic
// survives) instead of silently widening the ignore.
func parseAnalyzerList(s string) []string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, part := range strings.Split(fields[0], ",") {
		if part == "" {
			continue
		}
		if !isAnalyzerName(part) {
			return nil
		}
		names = append(names, part)
	}
	return names
}

func isAnalyzerName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

// Run applies the analyzers to one type-checked package and returns the
// surviving (unsuppressed) diagnostics sorted by position. It builds a
// single-package Program and suppression table internally; drivers that
// analyze several packages should build both once and use RunPkg so
// interprocedural facts and suppression-usage tracking span the whole
// run.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := NewProgram(fset, info)
	prog.AddPackage(pkg, files)
	supp := NewSuppressions(fset)
	supp.AddFiles(files...)
	return RunPkg(prog, supp, pkg, files, analyzers)
}

// RunPkg applies the analyzers to one package using shared
// whole-program facts and a shared suppression table, returning the
// surviving diagnostics sorted by position.
func RunPkg(prog *Program, supp *Suppressions, pkg *types.Package, files []*ast.File, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      prog.Fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: prog.Info,
			Prog:      prog,
			Supp:      supp,
			report: func(d Diagnostic) {
				if supp.Suppressed(d.Analyzer, d.Pos) {
					return
				}
				out = append(out, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	Sort(out)
	return out, nil
}

// Sort orders diagnostics by file, line, column, analyzer, message —
// the stable order the driver prints and serializes.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// All returns the production-configured analyzer suite in reporting
// order. The powtwo analyzer takes the repository's real target tables;
// tests swap in testdata-local ones.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		HotAlloc(),
		PowTwo(DefaultPowTwoConfig()),
		CtxCheck(),
		ErrFmt(),
		MergeCheck(),
		KeyCheck(),
		DeprCheck(),
		OneLoop(DefaultOneLoopConfig()),
	}
}

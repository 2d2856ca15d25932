package analysis_test

// Differential exhaustiveness tests: the fixture structs are GENERATED
// from the real stats/config types via reflection, so they track the
// shipped field sets automatically. For each field we emit a copy of
// the type whose Merge (or Key) references every field except that one
// and assert the analyzer reports exactly the dropped field — proving
// the analyzers would catch a real newly added field the moment a
// merge or key method failed to mention it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"

	"twopage/internal/analysis"
	"twopage/internal/tlb"
)

// goType renders a reflect type kind-for-kind as fixture source. Named
// types collapse to their kinds (IndexScheme → uint8): the analyzers
// care about shape, not names.
func goType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Slice:
		return "[]" + goType(t.Elem())
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), goType(t.Elem()))
	case reflect.Func:
		return "func()"
	case reflect.Interface:
		return "interface{}"
	default:
		return t.Kind().String()
	}
}

func isCounterKind(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return isCounterKind(t.Elem())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// checkSource type-checks one generated file and runs the analyzers on
// it, failing the test on parse or type errors (a broken generator, not
// a finding).
func checkSource(t *testing.T, src string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "diff.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing generated fixture: %v\n%s", err, src)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{}).Check("diff", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking generated fixture: %v\n%s", err, src)
	}
	diags, err := analysis.Run(fset, []*ast.File{f}, pkg, info, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return diags
}

// genStruct renders the reflected struct type under the given name.
func genStruct(name string, st reflect.Type) string {
	var b strings.Builder
	fmt.Fprintf(&b, "type %s struct {\n", name)
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		fmt.Fprintf(&b, "\t%s %s\n", f.Name, goType(f.Type))
	}
	b.WriteString("}\n\n")
	return b.String()
}

// genMergeFixture emits a Stats copy whose Merge references every field
// except drop (empty drop references all).
func genMergeFixture(st reflect.Type, drop string) string {
	var b strings.Builder
	b.WriteString("package diff\n\n")
	b.WriteString(genStruct("Stats", st))
	b.WriteString("func (s *Stats) Merge(o Stats) {\n")
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if name == drop {
			continue
		}
		fmt.Fprintf(&b, "\t_ = s.%s\n\t_ = o.%s\n", name, name)
	}
	b.WriteString("}\n")
	return b.String()
}

func TestMergeCheckDifferential(t *testing.T) {
	st := reflect.TypeOf(tlb.Stats{})
	if ds := checkSource(t, genMergeFixture(st, ""), analysis.MergeCheck()); len(ds) != 0 {
		t.Fatalf("full Merge over generated tlb.Stats: unexpected findings %v", ds)
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !isCounterKind(f.Type) {
			continue
		}
		ds := checkSource(t, genMergeFixture(st, f.Name), analysis.MergeCheck())
		if len(ds) != 1 {
			t.Errorf("dropping tlb.Stats.%s from Merge: got %d findings, want 1: %v", f.Name, len(ds), ds)
			continue
		}
		if !strings.Contains(ds[0].Message, "counter field "+f.Name) {
			t.Errorf("dropping tlb.Stats.%s: finding does not name the field: %s", f.Name, ds[0].Message)
		}
	}
}

// genKeyFixture emits a Config copy whose Key references every field
// except drop.
func genKeyFixture(st reflect.Type, drop string) string {
	var b strings.Builder
	b.WriteString("package diff\n\n")
	b.WriteString(genStruct("Config", st))
	b.WriteString("func (c Config) Key() (string, error) {\n")
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Name == drop {
			continue
		}
		fmt.Fprintf(&b, "\t_ = c.%s\n", f.Name)
	}
	b.WriteString("\treturn \"\", nil\n}\n")
	return b.String()
}

func TestKeyCheckDifferential(t *testing.T) {
	st := reflect.TypeOf(tlb.Config{})
	if ds := checkSource(t, genKeyFixture(st, ""), analysis.KeyCheck()); len(ds) != 0 {
		t.Fatalf("full Key over generated tlb.Config: unexpected findings %v", ds)
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		ds := checkSource(t, genKeyFixture(st, f.Name), analysis.KeyCheck())
		if len(ds) != 1 {
			t.Errorf("dropping tlb.Config.%s from Key: got %d findings, want 1: %v", f.Name, len(ds), ds)
			continue
		}
		if !strings.Contains(ds[0].Message, "field Config."+f.Name) {
			t.Errorf("dropping tlb.Config.%s: finding does not name the field: %s", f.Name, ds[0].Message)
		}
	}
}

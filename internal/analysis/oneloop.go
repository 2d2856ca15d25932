package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// OneLoopConfig names the per-reference methods only core's loop may
// call: Assign and Access on interfaces, and methods of concrete types.
type OneLoopConfig struct {
	// Interfaces lists qualified interface names, package path dot type
	// name, e.g. "twopage/internal/policy.Assigner". An Assign or Access
	// call on a value whose type implements one of them is flagged.
	Interfaces []string
	// Methods lists concrete methods by their full name, as
	// types.Func.FullName prints it, e.g.
	// "(*twopage/internal/wss.Static).Step". Every call of one is
	// flagged.
	Methods []string
}

// DefaultOneLoopConfig returns the repository's configuration: the
// page-size policy, the TLB and the working-set calculators.
func DefaultOneLoopConfig() OneLoopConfig {
	return OneLoopConfig{
		Interfaces: []string{"twopage/internal/policy.Assigner", "twopage/internal/tlb.TLB"},
		Methods: []string{
			"(*twopage/internal/wss.Static).Step",
			"(*twopage/internal/wss.Sampled).Step",
			"(*twopage/internal/wss.TwoSize).Observe",
			"(*twopage/internal/wss.TwoSize).ObserveWarm",
		},
	}
}

// oneLoopMethods are the per-reference methods of a policy and a TLB.
var oneLoopMethods = map[string]bool{"Assign": true, "Access": true}

// OneLoop returns the analyzer that keeps per-reference simulation in
// core's one loop (core.Simulator): an experiment that assigns pages,
// probes a TLB or steps a working-set calculator itself has a private
// copy of that loop, and a private copy drifts from core — one skipped
// core's TLB invalidation on demotion. Every Assign or Access call on a
// policy or TLB, and every call of a configured method, is flagged.
//
// A loop that models what belongs to one experiment alone may stay,
// with its reason in a //paperlint:ignore oneloop directive on (or
// above) the loop statement; that one directive covers every call the
// loop makes, so the reason is given once per loop rather than per
// call.
func OneLoop(cfg OneLoopConfig) *Analyzer {
	a := &Analyzer{
		Name: "oneloop",
		Doc:  "flags per-reference policy, TLB and working-set calls that bypass core's loop",
	}
	methods := map[string]bool{}
	for _, m := range cfg.Methods {
		methods[m] = true
	}
	a.Run = func(pass *Pass) error {
		ifaces := lookupInterfaces(pass.Pkg, cfg.Interfaces)
		for _, f := range pass.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection := pass.TypesInfo.Selections[sel]
				if selection == nil || selection.Kind() != types.MethodVal {
					return true
				}
				var what string
				if fn, ok := selection.Obj().(*types.Func); ok && methods[fn.FullName()] {
					what = fn.FullName()
				} else if oneLoopMethods[sel.Sel.Name] {
					if iface := implemented(selection.Recv(), ifaces); iface != "" {
						what = sel.Sel.Name + " on a " + iface
					}
				}
				if what == "" {
					return true
				}
				if loop := enclosingLoop(stack); loop != nil &&
					pass.Supp.Suppressed(a.Name, pass.Fset.Position(loop.Pos())) {
					return true
				}
				pass.Reportf(sel.Sel.Pos(), "%s outside core: run the pass through core.Simulator, or give the loop a //paperlint:ignore oneloop reason", what)
				return true
			})
		}
		return nil
	}
	return a
}

// enclosingLoop returns the innermost for or range statement on the
// inspection stack, not looking past the nearest enclosing function.
func enclosingLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return n
		case *ast.FuncLit, *ast.FuncDecl:
			return nil
		}
	}
	return nil
}

// namedInterface is one resolved OneLoopConfig.Interfaces entry.
type namedInterface struct {
	name  string
	iface *types.Interface
}

// implemented returns the qualified name of the first interface that
// t, or a pointer to it, implements, or "" if none does.
func implemented(t types.Type, ifaces []namedInterface) string {
	for _, ni := range ifaces {
		if types.Implements(t, ni.iface) || types.Implements(types.NewPointer(t), ni.iface) {
			return ni.name
		}
	}
	return ""
}

// lookupInterfaces resolves qualified interface names among pkg and
// the packages it imports, transitively, in the order given. Names
// whose package pkg does not reach are skipped: no value in pkg can
// have a type from it.
func lookupInterfaces(pkg *types.Package, names []string) []namedInterface {
	byPath := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if byPath[p.Path()] != nil {
			return
		}
		byPath[p.Path()] = p
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pkg)
	var out []namedInterface
	for _, name := range names {
		i := strings.LastIndex(name, ".")
		if i < 0 {
			continue
		}
		p := byPath[name[:i]]
		if p == nil {
			continue
		}
		if obj, ok := p.Scope().Lookup(name[i+1:]).(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				out = append(out, namedInterface{name, iface})
			}
		}
	}
	return out
}

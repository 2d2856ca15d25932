package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// PowTwoTarget names a function whose page-size parameters must be
// powers of two.
type PowTwoTarget struct {
	// Func is the qualified name, package path dot function name, e.g.
	// "twopage/internal/policy.NewSingle".
	Func string
	// Args lists the zero-based argument indices to check.
	Args []int
	// Rest, when > 0, additionally checks every argument from that
	// index on (variadic page-size lists). Zero disables it.
	Rest int
}

// PowTwoGeometry names a configuration struct whose constant fields
// encode a TLB/cache geometry.
type PowTwoGeometry struct {
	// Type is the qualified struct type name, e.g.
	// "twopage/internal/tlb.Config".
	Type string
	// PowFields are fields that, when set to a nonzero constant, must
	// individually be powers of two.
	PowFields []string
	// TotalField/WaysField, when both named, require the quotient
	// total/ways (the set count) to be a power of two and total to
	// divide evenly — the tlb.Config invariant. A zero or absent ways
	// means fully associative (one set), which is always fine.
	TotalField, WaysField string
}

// PowTwoAscending names a constructor taking a variadic page-size
// hierarchy that must be strictly ascending powers of two — the
// addr.SizeClasses invariant, caught at the call site instead of as a
// runtime constructor error.
type PowTwoAscending struct {
	// Func is the qualified name, package path dot function name, e.g.
	// "twopage/internal/addr.NewSizeClasses".
	Func string
	// From is the zero-based index of the first hierarchy argument;
	// every argument from it on is part of the size-class list.
	From int
}

// PowTwoConfig parameterizes the powtwo analyzer so tests can point it
// at testdata-local packages.
type PowTwoConfig struct {
	Targets    []PowTwoTarget
	Geometries []PowTwoGeometry
	Ascending  []PowTwoAscending
	// Validators are function names whose call result is trusted to be
	// a power of two (runtime-validated helpers like addr.MustPow2).
	// Non-constant expressions at checked positions must pass through
	// one of them.
	Validators []string
}

// DefaultPowTwoConfig wires the analyzer to the repository's real
// constructors: page sizes entering the policy and working-set paths,
// and the TLB/cache geometry structs.
func DefaultPowTwoConfig() PowTwoConfig {
	return PowTwoConfig{
		Targets: []PowTwoTarget{
			{Func: "twopage/internal/policy.NewSingle", Args: []int{0}},
			{Func: "twopage/internal/core.WithStaticWSS", Rest: 1},
		},
		Geometries: []PowTwoGeometry{
			{Type: "twopage/internal/tlb.Config", TotalField: "Entries", WaysField: "Ways"},
			{Type: "twopage/internal/cache.Config", PowFields: []string{"Block"}},
		},
		Ascending: []PowTwoAscending{
			{Func: "twopage/internal/addr.NewSizeClasses"},
			{Func: "twopage/internal/addr.MustSizeClasses"},
		},
		Validators: []string{"MustPow2"},
	}
}

// PowTwo returns the analyzer enforcing the paper's standing assumption
// that pages are aligned and power-of-two sized (Section 1; the model's
// address arithmetic is pure shifts and masks and is wrong for any
// other size). Constants flowing into the configured constructors are
// checked outright; non-constant expressions must pass through a
// validation helper such as addr.MustPow2, which keeps the check at the
// construction boundary instead of deep in simulation loops.
func PowTwo(cfg PowTwoConfig) *Analyzer {
	targets := map[string]PowTwoTarget{}
	for _, t := range cfg.Targets {
		targets[t.Func] = t
	}
	geoms := map[string]PowTwoGeometry{}
	for _, g := range cfg.Geometries {
		geoms[g.Type] = g
	}
	ascending := map[string]PowTwoAscending{}
	for _, a := range cfg.Ascending {
		ascending[a.Func] = a
	}
	validators := map[string]bool{}
	for _, v := range cfg.Validators {
		validators[v] = true
	}
	a := &Analyzer{
		Name: "powtwo",
		Doc:  "flags page sizes and TLB geometries that are not aligned powers of two",
	}
	a.Run = func(pass *Pass) error {
		info := pass.TypesInfo
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkPowTwoCall(pass, n, targets, validators)
					checkAscendingCall(pass, n, ascending)
				case *ast.CompositeLit:
					if t := info.TypeOf(n); t != nil {
						if g, ok := geoms[qualifiedTypeName(t)]; ok {
							checkGeometry(pass, n, g)
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

func checkPowTwoCall(pass *Pass, call *ast.CallExpr, targets map[string]PowTwoTarget, validators map[string]bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	t, ok := targets[fn.Pkg().Path()+"."+fn.Name()]
	if !ok {
		return
	}
	check := func(i int) {
		if i >= len(call.Args) {
			return
		}
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			return // spread slice: contents are not statically visible
		}
		arg := call.Args[i]
		if v, isConst := constIntValue(pass.TypesInfo, arg); isConst {
			if v <= 0 || v&(v-1) != 0 {
				pass.Reportf(arg.Pos(), "argument %d of %s is %d, not a positive power of two (the paper's model requires aligned power-of-two pages)", i, fn.Name(), v)
			}
			return
		}
		if isValidatorCall(pass.TypesInfo, arg, validators) {
			return
		}
		pass.Reportf(arg.Pos(), "non-constant page size reaches %s unvalidated: wrap it in a power-of-two validator (e.g. addr.MustPow2)", fn.Name())
	}
	for _, i := range t.Args {
		check(i)
	}
	if t.Rest > 0 {
		for i := t.Rest; i < len(call.Args); i++ {
			check(i)
		}
	}
}

// checkAscendingCall enforces the size-class-hierarchy invariant on a
// constructor call: every constant argument of the list must be a
// positive power of two, and consecutive constant arguments must be
// strictly ascending. A non-constant argument is left to the
// constructor's runtime validation and breaks the ascent chain (the
// analyzer cannot compare across it).
func checkAscendingCall(pass *Pass, call *ast.CallExpr, ascending map[string]PowTwoAscending) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	a, ok := ascending[fn.Pkg().Path()+"."+fn.Name()]
	if !ok {
		return
	}
	prev := int64(-1)
	for i := a.From; i < len(call.Args); i++ {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			return // spread slice: contents are not statically visible
		}
		arg := call.Args[i]
		v, isConst := constIntValue(pass.TypesInfo, arg)
		if !isConst {
			prev = -1
			continue
		}
		if v <= 0 || v&(v-1) != 0 {
			pass.Reportf(arg.Pos(), "size class %d of %s is %d, not a positive power of two", i-a.From, fn.Name(), v)
			prev = -1
			continue
		}
		if prev >= 0 && v <= prev {
			pass.Reportf(arg.Pos(), "size classes of %s are not strictly ascending: %d after %d", fn.Name(), v, prev)
		}
		prev = v
	}
}

func checkGeometry(pass *Pass, lit *ast.CompositeLit, g PowTwoGeometry) {
	fields := map[string]ast.Expr{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return // positional geometry literals are not used in this repo
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			fields[id.Name] = kv.Value
		}
	}
	for _, name := range g.PowFields {
		expr, ok := fields[name]
		if !ok {
			continue
		}
		if v, isConst := constIntValue(pass.TypesInfo, expr); isConst && v != 0 && (v < 0 || v&(v-1) != 0) {
			pass.Reportf(expr.Pos(), "%s.%s is %d, not a power of two", qualifiedTypeName(pass.TypesInfo.TypeOf(lit)), name, v)
		}
	}
	if g.TotalField == "" || g.WaysField == "" {
		return
	}
	totalExpr, ok := fields[g.TotalField]
	if !ok {
		return
	}
	total, ok := constIntValue(pass.TypesInfo, totalExpr)
	if !ok || total <= 0 {
		return
	}
	ways := total // absent or zero ways means fully associative
	if waysExpr, okW := fields[g.WaysField]; okW {
		if w, okC := constIntValue(pass.TypesInfo, waysExpr); okC && w != 0 {
			ways = w
		} else if !okC {
			return // runtime-determined ways: the constructor validates
		}
	}
	if ways < 0 || total%ways != 0 {
		pass.Reportf(totalExpr.Pos(), "%d entries do not divide into %d ways", total, ways)
		return
	}
	if sets := total / ways; sets&(sets-1) != 0 {
		pass.Reportf(totalExpr.Pos(), "geometry yields %d sets, not a power of two (set indexing is bit extraction)", sets)
	}
}

// constIntValue extracts an integer constant from a typed expression.
func constIntValue(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	if tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	return v, ok
}

// isValidatorCall reports whether e is (possibly parenthesized) a call
// to one of the trusted power-of-two validators, by name.
func isValidatorCall(info *types.Info, e ast.Expr, validators map[string]bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn := calleeFunc(info, call); fn != nil {
		return validators[fn.Name()]
	}
	return false
}

// qualifiedTypeName renders pkgpath.Name for named types, or the type
// string for everything else.
func qualifiedTypeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

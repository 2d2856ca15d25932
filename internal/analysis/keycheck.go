package analysis

import (
	"go/ast"
	"go/types"
)

// KeyCheck returns the analyzer pinning the memo-key exhaustiveness
// invariant: any method shaped like a memoization-key builder —
// exported `Key() (string, error)` or unexported `key() string` on a
// struct receiver — must reference every field of its config struct,
// and of every module-local config struct nested in it, somewhere in
// the method or its static callees.
//
// The experiment engine deduplicates simulation work by unit key
// (engine.Unit.Key, built from tlb.Config.Key and the policy-spec key
// fragments). A config field that never reaches the key is a cache
// collision waiting to happen: two units differing only in that field
// memoize to the same entry and one silently returns the other's
// result. That failure mode is invisible at run time — the wrong
// numbers render confidently — so the invariant must hold structurally:
// add a knob to tlb.Config, engine.PolicySpec, policy.TwoSizeConfig or
// policy.LadderConfig and the lint run fails until the key mentions it.
//
// "Referenced" means any mention of the field object anywhere in the
// key method's static call closure. Normalization counts: a field that
// the key's Normalized() call folds into a canonical field before
// formatting does affect the key bytes and passes the check for exactly
// that reason. Two shapes are exempt:
//
//   - function-typed fields (hooks cannot be part of a key; the engine
//     rejects non-nil hooks before memoizing, e.g. DenyPromotion);
//   - unexported fields of structs defined outside the key method's
//     package (not addressable from the key builder; their owning
//     package's constructors validate them).
//
// Nested coverage follows field types through pointers, slices and
// arrays into named struct types defined in this module, so
// engine.Unit.Key is accountable for tlb.Config's fields even though
// it delegates to tlb.Config.Key — delegation satisfies the check,
// deleting the delegation breaks it.
func KeyCheck() *Analyzer {
	a := &Analyzer{
		Name: "keycheck",
		Doc:  "memo-key methods must reference every field of their config struct (and nested module config structs)",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv == nil || d.Body == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil || !isKeyShaped(fn) {
					continue
				}
				named, _ := receiverStruct(fn)
				if named == nil {
					continue
				}
				closure := pass.Prog.Closure(fn, false)
				for _, s := range keyRelevantStructs(pass.Prog, named) {
					st := s.Underlying().(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if isFuncType(f.Type()) {
							continue // hooks cannot be keyed; the engine rejects non-nil ones
						}
						if !f.Exported() && s.Obj().Pkg() != pass.Pkg {
							continue
						}
						if !pass.Prog.FieldUsed(closure, f) {
							pass.Reportf(d.Name.Pos(),
								"%s.%s omits field %s.%s from the key: two configs differing only in it would collide in the engine memo cache",
								named.Obj().Name(), d.Name.Name, s.Obj().Name(), f.Name())
						}
					}
				}
			}
		}
		return nil
	}
	return a
}

// isKeyShaped reports whether fn is a memoization-key builder:
// `Key() (string, error)` or `key() string`, no parameters.
func isKeyShaped(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 0 {
		return false
	}
	res := sig.Results()
	switch fn.Name() {
	case "Key":
		return res.Len() == 2 && isString(res.At(0).Type()) && isErrorType(res.At(1).Type())
	case "key":
		return res.Len() == 1 && isString(res.At(0).Type())
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// keyRelevantStructs returns the receiver struct plus every named
// struct type from the program reachable through its fields (following
// pointers, slices and arrays), in deterministic breadth-first field
// order. These are the config layers whose fields must all reach the
// key.
func keyRelevantStructs(prog *Program, root *types.Named) []*types.Named {
	visited := map[*types.Named]bool{root: true}
	order := []*types.Named{root}
	for i := 0; i < len(order); i++ {
		st, ok := order[i].Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			named, ok := elemNamed(st.Field(j).Type())
			if !ok || visited[named] {
				continue
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				continue
			}
			if named.Obj().Pkg() == nil || !prog.HasPackage(named.Obj().Pkg()) {
				continue
			}
			visited[named] = true
			order = append(order, named)
		}
	}
	return order
}

// elemNamed strips pointers, slices and arrays and reports the named
// type underneath, if any.
func elemNamed(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Named:
			return u, true
		default:
			return nil, false
		}
	}
}

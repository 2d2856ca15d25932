package analysis

import (
	"go/ast"
	"go/types"
)

// DeprCheck returns the analyzer replacing the old `make
// deprecation-gate` grep: no identifier whose declaration carries the
// conventional "Deprecated:" doc marker may be used outside its
// defining package.
//
// A deprecated name here is a compatibility shim that carries old
// callers across an API change until they migrate; once the check
// shows it has no callers outside its package, the shim is deleted.
// The defining package normalizes shims away at the boundary; any
// *other* package reaching for one is new code written against the
// dead API. The grep this check replaces matched bare identifier text,
// so it could not tell a deprecated field from a current field of the
// same name on another struct and had to under-gate; the object-based
// check distinguishes them.
//
// The defining package itself is exempt — it must keep reading the
// fields to normalize them — and so are uses inside the declaration
// being marked (a deprecated function's own body).
func DeprCheck() *Analyzer {
	a := &Analyzer{
		Name: "deprcheck",
		Doc:  "flags uses of Deprecated-marked declarations outside their defining package",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
					return true
				}
				note, ok := pass.Prog.Deprecated(obj)
				if !ok {
					return true
				}
				pass.Reportf(id.Pos(), "use of deprecated %s %s (Deprecated: %s)",
					objKind(obj), objName(obj), note)
				return true
			})
		}
		return nil
	}
	return a
}

// objKind names the declaration class for the diagnostic.
func objKind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "function"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "constant"
	case *types.Var:
		if o.IsField() {
			return "field"
		}
		return "variable"
	}
	return "identifier"
}

// objName qualifies the object with its package name; alongside the
// diagnostic position that is unambiguous without reconstructing the
// owning struct or receiver.
func objName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrFmt returns the analyzer guarding the error-handling conventions
// of the I/O paths (trace open/decode, workload registration):
//
//   - fmt.Errorf that formats an error argument must use %w, so
//     callers can match the cause with errors.Is/errors.As (the
//     commands tell an interrupt from a failure by matching
//     context.Canceled through trace.OpenFile's wrapping);
//   - a call whose result set includes an error must not be used as a
//     bare statement: the error vanishes silently. Assign it
//     (_ = f() when the drop is deliberate) or handle it. Deferred
//     Close-style calls are exempt — the idiomatic defer f.Close() on
//     read-only paths is accepted.
func ErrFmt() *Analyzer {
	a := &Analyzer{
		Name: "errfmt",
		Doc:  "flags fmt.Errorf wrapping without %w and silently dropped error returns",
	}
	a.Run = func(pass *Pass) error {
		errType := types.Universe.Lookup("error").Type()
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkErrorf(pass, n, errType)
				case *ast.ExprStmt:
					call, ok := ast.Unparen(n.X).(*ast.CallExpr)
					if !ok {
						return true
					}
					if returnsError(pass.TypesInfo, call, errType) {
						pass.Reportf(n.Pos(), "call result includes an error that is silently dropped; handle it or discard explicitly with _ =")
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkErrorf flags fmt.Errorf calls that pass an error value without a
// %w verb in the format string.
func checkErrorf(pass *Pass, call *ast.CallExpr, errType types.Type) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	format, ok := constStringValue(pass.TypesInfo, call.Args[0])
	if !ok || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil {
			continue
		}
		if types.AssignableTo(t, errType) {
			pass.Reportf(arg.Pos(), "error formatted into fmt.Errorf without %%w: the cause is lost to errors.Is/errors.As; wrap it")
			return
		}
	}
}

// returnsError reports whether any of the call's results is an error.
func returnsError(info *types.Info, call *ast.CallExpr, errType types.Type) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// constStringValue extracts a string constant from a typed expression.
func constStringValue(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

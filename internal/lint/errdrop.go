package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop forbids silently discarded error results: a call used as a
// bare statement whose results include an error must either handle it
// or opt out explicitly with `_ =`. The check targets module-internal
// calls (wire encode/decode, iterator plumbing, store operations) plus
// any Close method regardless of package, because dropped Close errors
// hide failed flushes and leaked remote cursors. Deferred calls are
// exempt: `defer it.Close()` is the established teardown idiom.
func ErrDrop() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc:  "no silently discarded error results; write `_ = f()` to discard deliberately",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkErrDrop(pass, call)
				return true
			})
		}
	}
	return a
}

func checkErrDrop(pass *Pass, call *ast.CallExpr) {
	if !returnsError(pass, call) {
		return
	}
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil {
		return // conversion, builtin, or dynamic call through a variable
	}
	isClose := fn.Name() == "Close"
	if !isClose && !pass.InModule(fn.Pkg()) {
		return // third-party/stdlib calls outside the Close contract
	}
	pass.Reportf(call.Pos(), "error result of %s is silently discarded; handle it or write `_ = ...`", fn.Name())
}

// returnsError reports whether the call's result includes an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

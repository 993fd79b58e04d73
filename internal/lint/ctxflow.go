package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context propagation, the backbone of cancellation
// across the mediator's fan-out layers. Three rules:
//
//  1. context.Background() and context.TODO() are reserved for package
//     main (process roots own their contexts). Anywhere else they sever
//     the caller's deadline and cancellation, so every library call site
//     must accept and thread a context instead.
//  2. Inside a function that takes a context.Context parameter, any
//     module-internal call that accepts a context must receive one
//     derived from that parameter — not a fresh Background/TODO built
//     locally. The dataflow tracks context variables through
//     assignments, WithTimeout/WithValue-style wrappers, and
//     StartSpan's returned context.
//  3. A loop that re-enters the I/O layer (a module-internal,
//     context-taking call into source/wire/exec/txn/...) must consult
//     its context between iterations — a direct ctx.Err() call or a
//     ctx.Done() receive in the loop body — so a cancelled query stops
//     retrying instead of hammering a dead source until the attempt
//     budget runs out.
func CtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc:  "no context.Background/TODO outside main; context params must flow into blocking calls; retry loops must consult ctx between attempts",
	}
	a.Run = func(pass *Pass) {
		isMain := pass.Pkg.Types.Name() == "main"
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if !isMain {
						if name, ok := freshContextCall(pass, n); ok {
							pass.Reportf(n.Pos(), "context.%s outside package main severs cancellation and deadlines; accept a context.Context and thread it here", name)
						}
					}
				case *ast.ForStmt:
					checkRetryLoop(pass, n.Body)
				case *ast.RangeStmt:
					checkRetryLoop(pass, n.Body)
				}
				return true
			})
		}
		for _, fs := range pass.FuncScopes() {
			checkCtxFlow(pass, fs, isMain)
		}
	}
	return a
}

// checkRetryLoop implements rule 3 over one loop body. Nested function
// literals run on their own stack (typically a spawned goroutine with
// its own select) and nested loops are checked on their own, so both are
// opaque here: neither their I/O calls nor their consults count for the
// enclosing loop.
func checkRetryLoop(pass *Pass, body *ast.BlockStmt) {
	var ioCall *ast.CallExpr
	var ioName string
	consulted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		switch m := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.CallExpr:
			if ctxConsult(pass, m) {
				consulted = true
				return true
			}
			ip := pass.Interproc()
			// A helper whose summary consults the context on every
			// resolved body counts: the loop's liveness check may live
			// one call down.
			if ip != nil && ip.ConsultingCall(m) {
				consulted = true
				return true
			}
			if _, isGo := pass.Parent(m).(*ast.GoStmt); isGo {
				return true // spawned work; the loop itself does not block on it
			}
			if ioCall == nil {
				if fn := moduleCtxCallee(pass, m); fn != nil && ioLayerPath(fn.Pkg().Path()) {
					ioCall, ioName = m, fn.Name()
				} else if ip != nil {
					// Interprocedural extension: a local wrapper around
					// the I/O layer re-enters it all the same.
					if name, _, ok := ip.WireIOCall(m); ok {
						ioCall, ioName = m, name
					}
				}
			}
		}
		return !consulted || ioCall == nil
	})
	if ioCall != nil && !consulted {
		pass.Reportf(ioCall.Pos(), "loop re-enters the I/O layer via %s without consulting ctx.Err() (or receiving from ctx.Done()) between iterations; a cancelled query must stop retrying", ioName)
	}
}

// ctxConsult matches direct context liveness checks: ctx.Err() and
// ctx.Done() (the latter is only useful as a receive, so any use
// counts).
func ctxConsult(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Err" || fn.Name() == "Done"
}

const (
	ctxDerived uint8 = 1 // flows from the function's context parameter (or unknown)
	ctxFresh   uint8 = 2 // rooted at a local Background/TODO
)

func checkCtxFlow(pass *Pass, fs funcScope, isMain bool) {
	// Only functions that take a context have a propagation contract.
	param := contextParam(pass, fs.typ)
	if param == nil {
		return
	}
	g := BuildCFG(fs.body)

	var statusOf func(s map[*types.Var]uint8, e ast.Expr) uint8
	statusOfCall := func(s map[*types.Var]uint8, call *ast.CallExpr) uint8 {
		if _, fresh := freshContextCall(pass, call); fresh {
			return ctxFresh
		}
		// A wrapper's result inherits the worst status among its
		// context arguments: WithTimeout(bg, d) is still fresh-rooted.
		st := ctxDerived
		for _, arg := range call.Args {
			if t := pass.TypeOf(arg); t != nil && isContextType(t) {
				if as := statusOf(s, arg); as > st {
					st = as
				}
			}
		}
		return st
	}
	statusOf = func(s map[*types.Var]uint8, e ast.Expr) uint8 {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := pass.ObjectOf(e).(*types.Var); ok {
				if st, ok := s[v]; ok {
					return st
				}
			}
			return ctxDerived
		case *ast.CallExpr:
			return statusOfCall(s, e)
		}
		return ctxDerived
	}

	// apply folds a block's nodes over s; with report set it also flags
	// module-internal context-taking calls fed a fresh context.
	apply := func(bl *Block, s map[*types.Var]uint8, report bool) {
		for _, n := range bl.Nodes {
			walkNode(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					pairwise := len(m.Lhs) == len(m.Rhs)
					var callSt uint8
					if !pairwise && len(m.Rhs) == 1 {
						if call, ok := ast.Unparen(m.Rhs[0]).(*ast.CallExpr); ok {
							callSt = statusOfCall(s, call)
						}
					}
					for i, lhs := range m.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						v, ok := pass.ObjectOf(id).(*types.Var)
						if !ok || !isContextType(v.Type()) {
							continue
						}
						if pairwise {
							s[v] = statusOf(s, m.Rhs[i])
						} else if callSt != 0 {
							s[v] = callSt
						}
					}
				case *ast.CallExpr:
					if !report {
						return true
					}
					fn := moduleCtxCallee(pass, m)
					if fn == nil {
						return true
					}
					for _, arg := range m.Args {
						t := pass.TypeOf(arg)
						if t == nil || !isContextType(t) {
							continue
						}
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if v, ok := pass.ObjectOf(id).(*types.Var); ok && s[v] == ctxFresh {
								pass.Reportf(arg.Pos(), "%s receives %s, which is rooted at a fresh context, not %s's %s parameter; thread the caller's context",
									fn.Name(), id.Name, fs.name, param.Name())
							}
							continue
						}
						if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isMain {
							// Outside main the Background call itself is
							// already reported by rule 1.
							if name, fresh := freshContextCall(pass, call); fresh {
								pass.Reportf(arg.Pos(), "%s receives a fresh context.%s although %s has a %s parameter; thread it instead",
									fn.Name(), name, fs.name, param.Name())
							}
						}
					}
				}
				return true
			}, nil)
		}
	}

	entry := map[*types.Var]uint8{param: ctxDerived}
	in := fixpoint(g, entry,
		func(bl *Block, s map[*types.Var]uint8) { apply(bl, s, false) }, nil)
	for _, bl := range g.Blocks {
		s, ok := in[bl]
		if !ok {
			continue
		}
		apply(bl, cloneFacts(s), true)
	}
}

// contextParam returns the (first) named context.Context parameter var.
func contextParam(pass *Pass, typ *ast.FuncType) *types.Var {
	if typ == nil || typ.Params == nil {
		return nil
	}
	for _, field := range typ.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := pass.Pkg.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// freshContextCall matches context.Background() and context.TODO().
func freshContextCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

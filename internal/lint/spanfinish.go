package lint

import (
	"go/ast"
	"go/types"
)

// SpanFinish enforces the tracing contract: a *obs.Span obtained from
// obs.StartSpan must reach an End call on every path out of the function
// that started it, or be handed off (returned, passed on, captured by a
// closure that owns the teardown). A span left pending on even one
// return path silently truncates the query trace for that path — exactly
// the path (usually an error path) an operator most needs to see.
func SpanFinish() *Analyzer {
	a := &Analyzer{
		Name: "spanfinish",
		Doc:  "obs spans must reach End (or be handed off) on every path out of the starting function",
	}
	a.Run = func(pass *Pass) {
		spanType := pass.Named(pass.loader.ModulePath+"/internal/obs", "Span")
		if spanType == nil {
			return // package never touches the tracing model
		}
		for _, fs := range pass.FuncScopes() {
			checkSpanFinish(pass, spanType, fs)
		}
	}
	return a
}

const (
	spanDone    uint8 = 1 // ended, escaped, or overwritten
	spanPending uint8 = 2 // started, End not yet guaranteed
)

func checkSpanFinish(pass *Pass, spanType *types.Named, fs funcScope) {
	g := BuildCFG(fs.body)

	// Gen sites: any `..., s := obs.StartSpan(...)` or `..., s = ...`
	// assignment whose RHS is a StartSpan call and whose LHS includes a
	// *obs.Span variable. The obs API also returns spans from helpers,
	// but StartSpan is the only producer that creates an obligation.
	defs := make(map[*types.Var]*ast.Ident)
	for _, bl := range g.Blocks {
		for _, n := range bl.Nodes {
			walkNode(n, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || len(as.Rhs) != 1 || !isStartSpanCall(pass, as.Rhs[0]) {
					return true
				}
				for _, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					v, ok := pass.ObjectOf(id).(*types.Var)
					if !ok || !isSpanPtr(v.Type(), spanType) {
						continue
					}
					if _, seen := defs[v]; !seen {
						defs[v] = id
					}
				}
				return true
			}, nil)
		}
	}
	if len(defs) == 0 {
		return
	}

	transfer := func(bl *Block, s map[*types.Var]uint8) {
		for _, n := range bl.Nodes {
			walkNode(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					if len(m.Rhs) == 1 && isStartSpanCall(pass, m.Rhs[0]) {
						for _, lhs := range m.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
								if v, ok := pass.ObjectOf(id).(*types.Var); ok {
									if _, tracked := defs[v]; tracked {
										s[v] = spanPending
									}
								}
							}
						}
					}
				case *ast.Ident:
					v, ok := pass.ObjectOf(m).(*types.Var)
					if !ok {
						return true
					}
					if _, tracked := defs[v]; !tracked {
						return true
					}
					switch parent := pass.Parent(m).(type) {
					case *ast.SelectorExpr:
						if parent.X == ast.Expr(m) {
							if parent.Sel.Name == "End" {
								s[v] = spanDone
							}
							// SetAttr, SetInt, ... keep the obligation.
							return true
						}
						s[v] = spanDone // field of the span escapes? treat as hand-off
					case *ast.BinaryExpr:
						// nil comparisons neither end nor hand off
					case *ast.AssignStmt:
						for _, lhs := range parent.Lhs {
							if lhs == ast.Expr(m) {
								return true // reassignment target, handled above
							}
						}
						s[v] = spanDone // stored somewhere: owner changed
					case *ast.CallExpr:
						// Passing the span to a callee is normally a
						// hand-off — but when every resolved body only
						// reads it, the End obligation stays here.
						if argKeepsObligation(pass, parent, m, true) {
							return true
						}
						s[v] = spanDone
					default:
						// Return value, composite literal, &s, channel
						// send: teardown responsibility moved.
						s[v] = spanDone
					}
				}
				return true
			}, func(fl *ast.FuncLit) {
				// A closure capturing the span owns it from here on —
				// Engine.instrument ends its root span inside the
				// returned finish func, for example.
				markCaptured(pass, fl, defs, s)
			})
		}
	}

	// On the nil edge of a `span == nil` / `span != nil` guard the span
	// carries no obligation (obs returns nil spans when tracing is off,
	// and every Span method is nil-safe).
	refine := func(from, to *Block, s map[*types.Var]uint8) {
		v, nilOnTrue, ok := nilCompare(pass, from.Cond)
		if !ok {
			return
		}
		if _, tracked := defs[v]; tracked && (to == from.TrueTo) == nilOnTrue {
			s[v] = spanDone
		}
	}

	in := fixpoint(g, map[*types.Var]uint8{}, transfer, refine)
	exit, ok := in[g.Exit]
	if !ok {
		return // no normal return path reaches Exit
	}
	for v, st := range exit {
		if st == spanPending {
			def := defs[v]
			pass.Reportf(def.Pos(), "span %s may reach a return without End, truncating the trace on that path; call %s.End (or defer it) on every path or hand the span off",
				def.Name, def.Name)
		}
	}
}

// markCaptured discharges every tracked variable a function literal
// captures.
func markCaptured[K comparable](pass *Pass, fl *ast.FuncLit, tracked map[*types.Var]K, s map[*types.Var]uint8) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok {
				if _, t := tracked[v]; t {
					s[v] = spanDone
				}
			}
		}
		return true
	})
}

// isStartSpanCall matches calls to obs.StartSpan.
func isStartSpanCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass.Pkg, call)
	return fn != nil && fn.Name() == "StartSpan" && fn.Pkg() != nil &&
		fn.Pkg().Path() == pass.loader.ModulePath+"/internal/obs"
}

// isSpanPtr reports whether t is *obs.Span.
func isSpanPtr(t types.Type, spanType *types.Named) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := ptr.Elem().(*types.Named)
	return ok && n.Obj() == spanType.Obj()
}

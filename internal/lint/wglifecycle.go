package lint

import (
	"go/ast"
	"go/types"
)

// WGLifecycle audits the sync.WaitGroup counter protocol per function
// body, on the CFG:
//
//   - Add inside the spawned goroutine (directly in the literal, or
//     transitively through a callee summarized as adding): the spawner
//     can reach Wait before the goroutine has run Add, so Wait sees a
//     zero counter and returns with the work still in flight.
//   - Add after Wait: reusing the counter in the same body after a join
//     races any straggler from the previous round; detected as a
//     must-fact — every path to the Add has already passed Wait.
//     (Reuse across loop iterations joins with the not-yet-waited entry
//     path and stays silent.)
//   - Done not dominated by Add, for WaitGroups declared in this body:
//     a direct Done with no Add on some path drives the counter
//     negative and panics.
//   - Double Wait with no Add between: the second join is dead code at
//     best and a stale-round race at worst.
//
// Must-facts ride the shared may-dataflow by tracking their negation:
// "some path has NOT waited/added yet" is a may-fact whose ABSENCE
// proves the must-property on all paths.
func WGLifecycle() *Analyzer {
	a := &Analyzer{
		Name: "wglifecycle",
		Doc:  "WaitGroup protocol: Add before the goroutine and before Wait, Done dominated by Add, one Wait per round",
	}
	a.Run = func(pass *Pass) {
		for _, fs := range pass.FuncScopes() {
			checkWGSpawns(pass, fs)
			checkWGFlow(pass, fs)
		}
	}
	return a
}

// wgFactKind distinguishes the tracked facts per WaitGroup reference.
type wgFactKind uint8

const (
	// wgMayNotWaited: some path to here has not executed Wait since the
	// last Add (entry seeds it; absence means every path waited).
	wgMayNotWaited wgFactKind = iota
	// wgMayWaited: some path to here has executed Wait since the last
	// Add.
	wgMayWaited
	// wgMayNoAdd: some path to here has not executed Add (seeded for
	// locally declared WaitGroups; absence means Add dominates).
	wgMayNoAdd
)

// wgFact keys the dataflow state: one fact kind per WaitGroup ref.
type wgFact struct {
	ref  lockRef
	kind wgFactKind
}

// syncWGOp matches wg.Add/Done/Wait calls on sync.WaitGroup and returns
// the operation plus the group's identity.
func syncWGOp(pass *Pass, call *ast.CallExpr) (string, lockRef, bool) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || !isWaitGroupMethod(fn) {
		return "", lockRef{}, false
	}
	switch fn.Name() {
	case "Add", "Done", "Wait":
	default:
		return "", lockRef{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockRef{}, false
	}
	ref, ok := refPath(pass.Pkg, sel.X)
	if !ok {
		return "", lockRef{}, false
	}
	return fn.Name(), ref, true
}

// checkWGSpawns flags Add calls that run inside a goroutine this body
// spawns — lexically in the go literal, or transitively through a
// spawned callee whose summary adds — when the WaitGroup belongs to the
// enclosing scope (a group declared inside the literal is the
// goroutine's own business).
func checkWGSpawns(pass *Pass, fs funcScope) {
	walkNode(fs.body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				op, ref, ok := syncWGOp(pass, call)
				if !ok || op != "Add" {
					return true
				}
				if v, ok := ref.root.(*types.Var); ok && fl.Body.Pos() <= v.Pos() && v.Pos() < fl.Body.End() {
					return true // the goroutine's own local group
				}
				pass.Reportf(call.Pos(), "%s.Add inside the spawned goroutine races the spawner's Wait: the counter may still be zero when Wait runs; Add before the go statement", ref.path)
				return true
			})
			return true
		}
		// go helper(&wg): trust the resolved summaries.
		if ip := pass.Interproc(); ip != nil {
			if site := ip.Graph.SiteOf(gs.Call); site != nil && !site.Interface {
				for _, t := range site.Targets {
					if ts := ip.SummaryOf(t); ts != nil && ts.AddsToWaitGroup && wgReachesSpawnArgs(pass, gs.Call) {
						pass.Reportf(gs.Pos(), "spawned call %s adds to a WaitGroup passed from this scope; the counter may still be zero when Wait runs; Add before the go statement", displayName(t))
						break
					}
				}
			}
		}
		return true
	}, nil)
}

// wgReachesSpawnArgs reports whether any argument (or the method
// receiver) of the spawned call is a sync.WaitGroup from this scope.
func wgReachesSpawnArgs(pass *Pass, call *ast.CallExpr) bool {
	isWG := func(e ast.Expr) bool {
		t := pass.TypeOf(e)
		if t == nil {
			return false
		}
		named := derefNamed(t)
		return named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
	}
	for _, arg := range call.Args {
		if isWG(arg) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isWG(sel.X) {
		return true
	}
	return false
}

// checkWGFlow runs the counter-protocol dataflow over one body.
func checkWGFlow(pass *Pass, fs funcScope) {
	// Pre-scan: every WaitGroup ref operated on in this body, plus which
	// are declared here (Done-domination only applies to those — a
	// captured or receiver group's Adds live in another scope).
	refs := make(map[lockRef]bool)
	local := make(map[lockRef]bool)
	hasOps := false
	walkNode(fs.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ref, ok := syncWGOp(pass, call); ok {
			hasOps = true
			refs[ref] = true
			if v, ok := ref.root.(*types.Var); ok && fs.body.Pos() <= v.Pos() && v.Pos() < fs.body.End() {
				local[ref] = true
			}
		}
		return true
	}, nil)
	if !hasOps {
		return
	}

	entry := make(map[wgFact]uint8)
	for ref := range refs {
		entry[wgFact{ref, wgMayNotWaited}] = 1
		if local[ref] {
			entry[wgFact{ref, wgMayNoAdd}] = 1
		}
	}

	apply := func(bl *Block, s map[wgFact]uint8, report bool) {
		for _, n := range bl.Nodes {
			walkNode(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, isDefer := pass.Parent(call).(*ast.DeferStmt); isDefer {
					return true // defer wg.Done() runs at return, not here
				}
				op, ref, ok := syncWGOp(pass, call)
				if !ok {
					return true
				}
				switch op {
				case "Add":
					if report && s[wgFact{ref, wgMayNotWaited}] == 0 {
						pass.Reportf(call.Pos(), "%s.Add after Wait reuses the group in the same body; a straggler from the waited round races the new one — use a fresh WaitGroup per round", ref.path)
					}
					// A new round begins: the group is un-waited again,
					// Add now dominates, and a future Wait is fresh.
					s[wgFact{ref, wgMayNotWaited}] = 1
					delete(s, wgFact{ref, wgMayNoAdd})
					delete(s, wgFact{ref, wgMayWaited})
				case "Done":
					if report && local[ref] && s[wgFact{ref, wgMayNoAdd}] != 0 {
						pass.Reportf(call.Pos(), "%s.Done is not dominated by Add: on some path the counter is zero here, so Done panics", ref.path)
					}
				case "Wait":
					if report && s[wgFact{ref, wgMayWaited}] != 0 {
						pass.Reportf(call.Pos(), "second %s.Wait with no Add in between: the counter is already drained, so this join guards nothing", ref.path)
					}
					delete(s, wgFact{ref, wgMayNotWaited})
					s[wgFact{ref, wgMayWaited}] = 1
				}
				return true
			}, nil)
		}
	}

	g := BuildCFG(fs.body)
	in := fixpoint(g, entry,
		func(bl *Block, s map[wgFact]uint8) { apply(bl, s, false) }, nil)
	for _, bl := range g.Blocks {
		s, ok := in[bl]
		if !ok {
			continue
		}
		apply(bl, cloneFacts(s), true)
	}
}

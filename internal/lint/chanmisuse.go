package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// ChanMisuse flags channel operations that panic or hang under the
// wrong interleaving:
//
//   - close of a channel that may already be closed (a second close on
//     some path through this body, directly or hidden behind a helper a
//     summary proves closes its channel parameter) — close of a closed
//     channel panics, unconditionally;
//   - send on a channel that may already be closed on another path —
//     also a panic, and the racing variant is the classic
//     producer-outlives-coordinator bug;
//   - a bare send inside a spawned goroutine on an unbuffered channel
//     created in the spawning scope, with no select around it: if the
//     receiver bails (error path, ctx cancel), the sender blocks
//     forever. This extends goleak's spawn model from "can the
//     goroutine learn it should stop" to "can this particular send
//     stop". Buffered channels sized for the fan-out are the sanctioned
//     pattern and stay exempt.
//
// May-closed facts flow on the same forward dataflow as the other
// analyzers; re-making a channel kills the fact (it is a new channel).
func ChanMisuse() *Analyzer {
	a := &Analyzer{
		Name: "chanmisuse",
		Doc:  "no close/send on a possibly-closed channel; no bare unguarded send in a spawned goroutine",
	}
	a.Run = func(pass *Pass) {
		for _, fs := range pass.FuncScopes() {
			checkChanFlow(pass, fs)
			checkSpawnedSends(pass, fs)
		}
	}
	return a
}

const chanClosedState uint8 = 1

// chanOpRef resolves a channel-typed operand expression to a stable
// reference.
func chanOpRef(pass *Pass, e ast.Expr) (lockRef, bool) {
	t := pass.TypeOf(e)
	if t == nil {
		// Defining identifiers (ch := make(...)) are recorded in Defs,
		// not Types.
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				t = obj.Type()
			}
		}
	}
	if t == nil {
		return lockRef{}, false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return lockRef{}, false
	}
	return refPath(pass.Pkg, e)
}

// closeCallRef matches close(ch) and returns ch's reference.
func closeCallRef(pass *Pass, call *ast.CallExpr) (lockRef, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return lockRef{}, false
	}
	if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin || id.Name != "close" {
		return lockRef{}, false
	}
	return chanOpRef(pass, call.Args[0])
}

// summaryClosedRefs returns the references of channel arguments the
// call's resolved targets may close (per ClosesChanParams summaries).
func summaryClosedRefs(pass *Pass, call *ast.CallExpr) []lockRef {
	ip := pass.Interproc()
	if ip == nil {
		return nil
	}
	site := ip.Graph.SiteOf(call)
	if site == nil || site.Interface {
		return nil
	}
	var out []lockRef
	for i, arg := range call.Args {
		closes := false
		for _, t := range site.Targets {
			if ts := ip.SummaryOf(t); ts != nil && ts.ClosesChanParams[i] {
				closes = true
				break
			}
		}
		if !closes {
			continue
		}
		if ref, ok := chanOpRef(pass, arg); ok {
			out = append(out, ref)
		}
	}
	return out
}

// checkChanFlow runs the may-closed dataflow over one body.
func checkChanFlow(pass *Pass, fs funcScope) {
	// Pre-scan: bodies with no close (direct or via a closing helper)
	// can never reach the closed state.
	closes := false
	walkNode(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := closeCallRef(pass, call); ok {
				closes = true
			} else if len(summaryClosedRefs(pass, call)) > 0 {
				closes = true
			}
		}
		return !closes
	}, nil)
	if !closes {
		return
	}

	apply := func(bl *Block, s map[lockRef]uint8, report bool) {
		for _, n := range bl.Nodes {
			walkNode(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.CallExpr:
					if _, isDefer := pass.Parent(m).(*ast.DeferStmt); isDefer {
						return true // defer close(ch) runs at return
					}
					if ref, ok := closeCallRef(pass, m); ok {
						if report && s[ref] == chanClosedState {
							pass.Reportf(m.Pos(), "close of %s, which may already be closed on another path; closing a closed channel panics", ref.path)
						}
						s[ref] = chanClosedState
						return true
					}
					for _, ref := range summaryClosedRefs(pass, m) {
						s[ref] = chanClosedState
					}
				case *ast.SendStmt:
					if ref, ok := chanOpRef(pass, m.Chan); ok {
						if report && s[ref] == chanClosedState {
							pass.Reportf(m.Pos(), "send on %s, which may already be closed on another path; sending on a closed channel panics", ref.path)
						}
					}
				case *ast.AssignStmt:
					// ch = make(...) (or any reassignment): a new channel,
					// the closed fact dies.
					for _, lhs := range m.Lhs {
						if ref, ok := chanOpRef(pass, lhs); ok {
							delete(s, ref)
						}
					}
				}
				return true
			}, nil)
		}
	}

	g := BuildCFG(fs.body)
	in := fixpoint(g, map[lockRef]uint8{},
		func(bl *Block, s map[lockRef]uint8) { apply(bl, s, false) }, nil)
	for _, bl := range g.Blocks {
		s, ok := in[bl]
		if !ok {
			continue
		}
		apply(bl, cloneFacts(s), true)
	}
}

// checkSpawnedSends flags bare sends in go-literals this body spawns.
func checkSpawnedSends(pass *Pass, fs funcScope) {
	// Channels this scope creates with a buffer: make(chan T, n) with
	// constant n > 0. Sends into those complete without a receiver (up
	// to the fan-out the buffer was sized for), the sanctioned
	// parallel-collect pattern.
	buffered := make(map[lockRef]bool)
	created := make(map[lockRef]bool)
	noteMake := func(lhs, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return
		}
		if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
			return
		}
		ref, ok := chanOpRef(pass, lhs)
		if !ok {
			return
		}
		created[ref] = true
		if len(call.Args) >= 2 {
			if tv, ok := pass.Pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if n, ok := constant.Int64Val(tv.Value); ok && n > 0 {
					buffered[ref] = true
					return
				}
			}
			// Non-constant capacity: sized at runtime, almost always to
			// the fan-out; trust it.
			buffered[ref] = true
		}
	}
	walkNode(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					noteMake(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					noteMake(name, n.Values[i])
				}
			}
		}
		return true
	}, nil)

	walkNode(fs.body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if _, isNested := m.(*ast.FuncLit); isNested {
				return false
			}
			send, ok := m.(*ast.SendStmt)
			if !ok {
				return true
			}
			if inSelectArm(pass, send) {
				return true
			}
			ref, ok := chanOpRef(pass, send.Chan)
			if !ok {
				return true
			}
			// Only channels this scope made are judged: parameters and
			// fields may be buffered or consumed elsewhere.
			if !created[ref] || buffered[ref] {
				return true
			}
			// The goroutine's own channels are its own business.
			if v, ok := ref.root.(*types.Var); ok && fl.Body.Pos() <= v.Pos() && v.Pos() < fl.Body.End() {
				return true
			}
			pass.Reportf(send.Pos(), "goroutine sends on unbuffered %s with no select: if the receiver is gone (error path, cancellation) the send blocks forever and leaks the goroutine; guard it with a select on ctx.Done or buffer the channel", ref.path)
			return true
		})
		return true
	}, nil)
}

// inSelectArm reports whether the send is the communication of a select
// case with at least one OTHER arm (done channel, default) that can
// free it — a single-arm select blocks exactly like a bare send.
func inSelectArm(pass *Pass, send *ast.SendStmt) bool {
	cc, ok := pass.Parent(send).(*ast.CommClause)
	if !ok || cc.Comm != ast.Stmt(send) {
		return false
	}
	body, ok := pass.Parent(cc).(*ast.BlockStmt)
	if !ok {
		return false
	}
	sel, ok := pass.Parent(body).(*ast.SelectStmt)
	if !ok {
		return false
	}
	return len(sel.Body.List) >= 2
}

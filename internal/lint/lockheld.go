package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockHeld flags a sync.Mutex/RWMutex held across an operation that can
// block indefinitely — a module-internal RPC-shaped call (anything
// taking a context), a channel send/receive, a select without default,
// WaitGroup.Wait, or a helper whose summary does any of these. This is
// the classic 2PC fan-out deadlock shape: a participant's lock held
// across a wire round-trip stalls every other goroutine needing that
// lock for as long as the slowest (or dead) source takes to answer. The
// analysis is per-function and path sensitive: locking, calling, then
// unlocking on every path is still flagged at the call, while
// lock/unlock pairs that bracket only in-memory work are fine.
func LockHeld() *Analyzer {
	a := &Analyzer{
		Name: "lockheld",
		Doc:  "no mutex held across a blocking operation (RPC-shaped call, channel op, Wait)",
	}
	a.Run = func(pass *Pass) {
		ip := pass.Interproc()
		for _, n := range ip.Graph.Nodes {
			if n.Pkg == pass.Pkg {
				checkLockHeld(pass, ip, n)
			}
		}
	}
	return a
}

// checkLockHeld reports every blocking operation n performs with a
// mutex held (held-set computation: heldlocks.go).
func checkLockHeld(pass *Pass, ip *Interproc, n *FuncNode) {
	ip.walkHeld(n, func(m ast.Node, held heldSet) {
		if len(held) == 0 {
			return
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if _, isGo := pass.Parent(m).(*ast.GoStmt); isGo {
				return // spawned work blocks its own goroutine
			}
			if desc, ok := blockingCall(pass, m); ok {
				reportHeld(pass, m.Pos(), held, desc)
			}
		case *ast.SendStmt:
			if !inSelectWithDefault(pass.Pkg, m) {
				reportHeld(pass, m.Pos(), held, "a channel send")
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !inSelectWithDefault(pass.Pkg, m) {
				reportHeld(pass, m.Pos(), held, "a channel receive")
			}
		case ast.Expr:
			// Range subjects over channels block per iteration.
			if _, isRange := pass.Parent(m).(*ast.RangeStmt); isRange {
				if t := pass.TypeOf(m); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						reportHeld(pass, m.Pos(), held, "a channel range loop")
					}
				}
			}
		}
	})
}

func reportHeld(pass *Pass, pos token.Pos, held heldSet, desc string) {
	// One lock acquired on two paths is two facts with one name.
	var names []string
	for h := range held {
		names = append(names, h.ref.path)
	}
	sort.Strings(names)
	names = slices.Compact(names)
	pass.Reportf(pos, "%s is held across %s, which can block indefinitely and stall every goroutine contending for the lock; unlock before blocking",
		strings.Join(names, ", "), desc)
}

// blockingCall classifies calls that can block indefinitely: module
// internal context-taking functions in the federation's I/O layers,
// sync.WaitGroup.Wait, and helpers that do either or park on a channel.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if fn.Pkg().Path() == "sync" && fn.Name() == "Wait" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := derefNamed(sig.Recv().Type()); named != nil && named.Obj().Name() == "WaitGroup" {
				return "WaitGroup.Wait", true
			}
		}
		return "", false // Cond.Wait releases the lock; not our shape
	}
	if mfn := moduleCtxCallee(pass, call); mfn != nil && ioLayerPath(mfn.Pkg().Path()) {
		return fmt.Sprintf("the call to %s", mfn.Name()), true
	}
	// Interprocedural extension: a helper anywhere in the module whose
	// transitive summary says "performs wire I/O" blocks just the same —
	// extracting the RPC into a local function must not hide it.
	if ip := pass.Interproc(); ip != nil {
		if name, via, ok := ip.WireIOCall(call); ok {
			return fmt.Sprintf("the call to %s, which performs wire I/O via %s", name, via), true
		}
		// So does one that parks on a channel or a WaitGroup.
		if site := ip.Graph.SiteOf(call); site != nil && !site.Interface {
			for _, t := range site.Targets {
				if ts := ip.SummaryOf(t); ts != nil && (ts.BlocksOnChan || ts.BlocksOnWG) {
					return fmt.Sprintf("the call to %s, which parks on a channel or WaitGroup", t.Name), true
				}
			}
		}
	}
	return "", false
}

// ioLayerPath reports whether a module package performs source/wire
// I/O, fan-out, or coordination — the layers whose context-taking calls
// can stall on a remote.
func ioLayerPath(path string) bool {
	for _, suffix := range []string{
		"/internal/source", "/internal/wire", "/internal/txn",
		"/internal/core", "/internal/catalog", "/internal/exec",
	} {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// derefNamed unwraps pointers to a named type.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// inSelectWithDefault reports whether n is the communication of a select
// case in a select that has a default clause (then the op cannot block).
func inSelectWithDefault(pkg *Package, n ast.Node) bool {
	cur := ast.Node(n)
	for i := 0; i < 4 && cur != nil; i++ {
		parent := pkg.Parent(cur)
		if cc, ok := parent.(*ast.CommClause); ok {
			// The clause's parent is the select's body block.
			body, ok := pkg.Parent(cc).(*ast.BlockStmt)
			if !ok {
				return false
			}
			sel, ok := pkg.Parent(body).(*ast.SelectStmt)
			if !ok {
				return false
			}
			for _, cl := range sel.Body.List {
				if c, ok := cl.(*ast.CommClause); ok && c.Comm == nil {
					return true
				}
			}
			return false
		}
		cur = parent
	}
	return false
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The held-lock walker. Two analyzers ask the same question of every
// function body — which mutexes are held when this node executes — and
// differ only in what they do with the answer: lockheld reports blocking
// operations, the lock-order model (lockorder) builds order edges. This
// file owns the shared half: recognising a sync lock operation, folding
// a callee's lock balance into the call site, keeping `defer` out of the
// flow, and the fixpoint-then-replay over the CFG that hands each node
// to a visitor together with the set held just before it.

// lockRef identifies one mutex instance by the root object of its access
// path plus the rendered path ("c.mu"), so shadowing cannot alias two of
// them.
type lockRef struct {
	root types.Object
	path string
}

// refPath renders an access chain like c.inner.mu into a stable (root,
// path) key; complex bases (map index, call result) are not tracked.
func refPath(pkg *Package, e ast.Expr) (lockRef, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.ObjectOf(e)
		if obj == nil {
			return lockRef{}, false
		}
		return lockRef{root: obj, path: e.Name}, true
	case *ast.SelectorExpr:
		r, ok := refPath(pkg, e.X)
		if !ok {
			return lockRef{}, false
		}
		return lockRef{root: r.root, path: r.path + "." + e.Sel.Name}, true
	case *ast.StarExpr:
		return refPath(pkg, e.X)
	}
	return lockRef{}, false
}

// lockOp is one direct sync.Mutex/RWMutex method call.
type lockOp struct {
	name string // "Lock", "RLock", "Unlock" or "RUnlock"
	// ref is the instance. Promoted embedded mutexes render their field
	// hop, so e.Lock() and e.Mutex.Lock() both key as "e.Mutex".
	ref lockRef
	// cls is the lock class — the mutex field or variable object, shared
	// by every instance of a struct the way lockdep keys locks — and
	// owner the struct that declares it when it is a field. cls is nil
	// when the receiver is not a plain field or variable.
	cls   *types.Var
	owner *types.Named
}

func (op lockOp) acquires() bool { return op.name == "Lock" || op.name == "RLock" }

// syncLockOp recognises mu.Lock/RLock/Unlock/RUnlock on a sync mutex.
func syncLockOp(pkg *Package, call *ast.CallExpr) (lockOp, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	ref, ok := refPath(pkg, sel.X)
	if !ok {
		return lockOp{}, false
	}
	op := lockOp{name: fn.Name(), ref: ref}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if v, ok := pkg.ObjectOf(x.Sel).(*types.Var); ok {
			op.cls = v
			if v.IsField() {
				op.owner = derefNamed(pkg.TypeOf(x.X))
			}
		}
	case *ast.Ident:
		op.cls, _ = pkg.ObjectOf(x).(*types.Var)
	}
	// Promoted selection: the selector elides the embedded field hops
	// (all of the index path but the final method); the last hop is the
	// mutex field itself.
	if s := pkg.Info.Selections[sel]; s != nil {
		idx, t := s.Index(), s.Recv()
		for _, i := range idx[:len(idx)-1] {
			st, ok := derefStruct(t)
			if !ok {
				break
			}
			f := st.Field(i)
			op.ref.path += "." + f.Name()
			op.cls, op.owner = f, derefNamed(t)
			t = f.Type()
		}
	}
	return op, true
}

// derefStruct unwraps pointers and named types down to a struct.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// fieldByRelPath walks a receiver-relative ".a.mu" path down t's struct
// fields and returns the final field, nil when a hop does not resolve.
func fieldByRelPath(t types.Type, rel string) *types.Var {
	var f *types.Var
	for _, hop := range strings.Split(strings.TrimPrefix(rel, "."), ".") {
		if t == nil {
			return nil
		}
		st, ok := derefStruct(t)
		if !ok {
			return nil
		}
		f = nil
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == hop {
				f = st.Field(i)
				break
			}
		}
		if f == nil {
			return nil
		}
		t = f.Type()
	}
	return f
}

// lockBalance is what one resolved method call does, on return, to the
// mutexes reachable from its receiver expression.
type lockBalance struct {
	base     lockRef    // the receiver expression's path
	baseType types.Type // and its type
	// locks are the receiver-relative paths (".mu", ".s.mu") EVERY
	// target leaves locked (ensureLocked-style helpers): a must-fact, the
	// meet over targets. unlocks are the paths ANY target releases: a
	// may-release kills the held fact, erring toward "not held".
	locks   map[string]bool
	unlocks []string
}

// calleeLockBalance folds the targets' LocksRecvPaths/UnlocksRecvPaths
// summaries at one call site. Interface-dispatched sites (name-matched
// targets are too coarse), `go` spawns (the new goroutine holds nothing
// of the spawner's) and receivers that are not a plain path report !ok.
func (ip *Interproc) calleeLockBalance(pkg *Package, call *ast.CallExpr) (lockBalance, bool) {
	site := ip.Graph.SiteOf(call)
	if site == nil || site.Interface || site.InGo || len(site.Targets) == 0 {
		return lockBalance{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockBalance{}, false
	}
	base, ok := refPath(pkg, sel.X)
	if !ok {
		return lockBalance{}, false
	}
	bal := lockBalance{base: base, baseType: pkg.TypeOf(sel.X)}
	for i, t := range site.Targets {
		ts := ip.summaries[t]
		if ts == nil {
			bal.locks = nil
			break
		}
		if i == 0 {
			bal.locks = ts.LocksRecvPaths
		} else {
			merged := make(map[string]bool)
			for p := range bal.locks {
				if ts.LocksRecvPaths[p] {
					merged[p] = true
				}
			}
			bal.locks = merged
		}
		for p := range ts.UnlocksRecvPaths {
			bal.unlocks = append(bal.unlocks, p)
		}
	}
	return bal, true
}

// heldLock is one held-mutex fact: the instance, its class (nil when
// unknown), where the current function acquired it, and whether it is
// held in read mode. Position is part of the key so a lock acquired on
// two paths keeps both witnesses alive; releasing drops every fact with
// the same ref.
type heldLock struct {
	ref  lockRef
	cls  *types.Var
	pos  token.Pos
	read bool
}

// heldSet is the dataflow state: a may-set, a lock is in it when some
// path to the program point holds it.
type heldSet = map[heldLock]uint8

func releaseRef(s heldSet, ref lockRef) {
	for h := range s {
		if h.ref == ref {
			delete(s, h)
		}
	}
}

// isDeferredCall reports whether call is the call of a defer statement.
func isDeferredCall(pkg *Package, call *ast.CallExpr) bool {
	_, ok := pkg.Parent(call).(*ast.DeferStmt)
	return ok
}

// applyLockEffect applies one non-deferred call's effect to s: a direct
// Lock/Unlock, or a resolved callee's lock balance.
func (ip *Interproc) applyLockEffect(pkg *Package, call *ast.CallExpr, s heldSet) {
	if op, ok := syncLockOp(pkg, call); ok {
		if op.acquires() {
			s[heldLock{ref: op.ref, cls: op.cls, pos: call.Pos(), read: op.name == "RLock"}] = 1
		} else {
			releaseRef(s, op.ref)
		}
		return
	}
	bal, ok := ip.calleeLockBalance(pkg, call)
	if !ok {
		return
	}
	for _, p := range bal.unlocks {
		releaseRef(s, lockRef{root: bal.base.root, path: bal.base.path + p})
	}
	for p := range bal.locks {
		cls := fieldByRelPath(bal.baseType, p)
		s[heldLock{ref: lockRef{root: bal.base.root, path: bal.base.path + p}, cls: cls, pos: call.Pos()}] = 1
	}
}

// acquiresLocks is the cheap pre-scan: a body with no Lock/RLock and no
// call to a helper that leaves a lock held never holds anything.
func (ip *Interproc) acquiresLocks(n *FuncNode) bool {
	found := false
	walkNode(n.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if op, ok := syncLockOp(n.Pkg, call); ok {
				found = op.acquires()
			} else if bal, ok := ip.calleeLockBalance(n.Pkg, call); ok {
				found = len(bal.locks) > 0
			}
		}
		return !found
	}, nil)
	return found
}

// walkHeld runs the held-lock dataflow over n's body, entered holding
// nothing, and then replays it deterministically (blocks in CFG order,
// nodes in syntactic order), calling visit on every node of the body
// outside nested literals with the set held immediately BEFORE the node
// takes effect. visit must not retain or mutate held.
//
// A deferred call runs at return, after the body: it neither changes
// the held set where it is registered (so `defer mu.Unlock()` keeps mu
// held to the end) nor is presented to visit as a call. Its DeferStmt
// is presented, and its argument expressions — evaluated at
// registration — are walked like any others.
func (ip *Interproc) walkHeld(n *FuncNode, visit func(m ast.Node, held heldSet)) {
	step := func(root ast.Node, s heldSet, visit func(ast.Node, heldSet)) {
		walkNode(root, func(m ast.Node) bool {
			call, isCall := m.(*ast.CallExpr)
			if isCall && isDeferredCall(n.Pkg, call) {
				return true
			}
			if visit != nil {
				visit(m, s)
			}
			if isCall && s != nil {
				ip.applyLockEffect(n.Pkg, call, s)
			}
			return true
		}, nil)
	}
	if !ip.acquiresLocks(n) {
		// Nothing is ever held: no dataflow needed.
		step(n.Body, nil, visit)
		return
	}
	g := n.Pkg.CFGOf(n.Body)
	in := fixpoint(g, nil, func(bl *Block, s heldSet) {
		for _, stmt := range bl.Nodes {
			step(stmt, s, nil)
		}
	}, nil)
	for _, bl := range g.Blocks {
		s, ok := in[bl]
		if !ok {
			continue
		}
		s = cloneFacts(s)
		for _, stmt := range bl.Nodes {
			step(stmt, s, visit)
		}
	}
}

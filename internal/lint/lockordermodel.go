package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Module-wide deadlock analysis: the lock-order graph, self-deadlock
// detection, and lock-wait (blocking) cycles. The mediator layers
// coordinators over autonomous components — parallel unions, bind-join
// fan-out, 2PC, admission control — and every layer carries its own
// mutex. None of the per-site analyzers can see the hang mode that
// emerges from their composition: goroutine 1 acquires catalog.mu then
// engine.mu, goroutine 2 acquires them in the opposite order, and the
// federation stalls with no error, no panic, and no log line. This file
// recovers the ordering discipline statically.
//
// Lock identity is the CLASS of a mutex — the go/types object of the
// mutex field (catalog.Catalog.mu) or of the package-level/local mutex
// variable — so every instance of a struct shares one graph node, the
// way runtime lock-order checkers (lockdep) key by lock class. Three
// artifacts are built over one pass:
//
//   - a lock-order graph with an edge A→B whenever some code path
//     acquires class B while holding class A, either directly or by
//     calling (transitively, through the call graph) a function that
//     acquires B. Each edge carries a WITNESS: the file:line chain from
//     the acquisition of A through the call sites to the acquisition of
//     B. Tarjan over the graph finds the cycles; every cycle is a
//     potential deadlock and is reported with the two (or more)
//     conflicting witness paths. Cycles whose every edge is read-read
//     (RLock held, RLock acquired) are not reported: shared read locks
//     admit each other, so an all-reader cycle cannot wedge on its own.
//
//   - self-deadlock findings: path-sensitive re-acquisition of a
//     non-reentrant mutex on one goroutine — double Lock, RLock→Lock
//     upgrade, Lock→RLock downgrade, or a call into a callee whose
//     summary (AcquiresRecvPaths) says it takes the same receiver-path
//     mutex the caller still holds.
//
//   - blocking-cycle findings: a goroutine parks on an unbuffered
//     channel send/receive or a WaitGroup.Wait while holding a lock
//     that the counterpart goroutine — the one that must receive, send,
//     or call Done before the parked goroutine can resume — acquires on
//     some path before reaching its counterpart operation. The parked
//     side holds what the waking side needs: a two-node wait cycle
//     spanning a mutex and a channel/WaitGroup, invisible to a
//     mutex-only order graph.
//
// The per-function held sets come from the shared walker
// (heldlocks.go), but unlike guard inference — which MEETS held sets
// over call sites because it must under-approximate "held" — edge
// construction needs may-hold, and gets it for free: an edge "caller
// holds A, callee acquires B" is created at the caller's call site
// from the callee's transitive acquire set, so no entry-set propagation
// is needed at all.

// acqInfo records how a function (transitively) acquires one lock
// class: the site inside the function (a direct Lock/RLock, or the call
// expression that leads to one) and the callee continuing the chain
// (nil for direct acquisitions). Chains are acyclic by construction —
// an entry is only ever created pointing at an already-existing entry,
// and upgrades (read→write) only repoint at entries that were already
// write — but expansion still depth-caps defensively.
type acqInfo struct {
	pos  token.Pos
	read bool
	next *FuncNode
}

// lockStep is one hop of an edge witness.
type lockStep struct {
	fn  *FuncNode
	pos token.Pos
	// desc says what happens at the hop: "Lock a.mu", "calls pkg.f".
	desc string
}

// LockEdge is one lock-order edge A→B with its witness chain from the
// acquisition of A to the acquisition of B.
type LockEdge struct {
	From, To *types.Var
	// AllRead: on this witness, A was held via RLock and B acquired via
	// RLock. Cycles made solely of AllRead edges are suppressed.
	AllRead bool
	Steps   []lockStep
}

// LockCycle is one reported cycle: the classes of the strongly
// connected component and the closing edge sequence, each edge carrying
// its witness path.
type LockCycle struct {
	Classes []*types.Var
	Edges   []*LockEdge
}

// deadlockFinding is one self-deadlock or blocking-cycle conviction,
// surfaced per package by the selfdeadlock/blockcycle analyzers.
type deadlockFinding struct {
	pos token.Pos
	pkg *Package
	msg string
}

type lockEdgeKey struct{ from, to *types.Var }

// LockOrderModel is the module-wide deadlock-analysis artifact, built
// once per Run alongside the guard model.
type LockOrderModel struct {
	ip    *Interproc
	names map[*types.Var]string
	// acquires is the per-function transitive lock-class acquire set.
	acquires map[*FuncNode]map[*types.Var]*acqInfo
	edges    map[lockEdgeKey]*LockEdge

	// Cycles are the lock-order cycles, sorted by the position of their
	// first witness step. selfFindings/blockFindings are the other two
	// analyzers' convictions, in deterministic scan order.
	Cycles        []*LockCycle
	selfFindings  []deadlockFinding
	blockFindings []deadlockFinding

	// Census for the driver's -stats.
	NumClasses  int // distinct lock classes observed at acquisition sites
	NumEdges    int // lock-order edges
	NumSCCs     int // SCCs of the class graph
	NumCycles   int // reported cycles (all-read cycles excluded)
	MaxWitness  int // deepest witness chain, in steps
	ReadsCycles int // cycles suppressed because every edge was read-read
}

// BuildLockOrderModel computes transitive acquire sets bottom-up over
// the call-graph SCCs, then replays every function's held-set dataflow
// to grow the edge set and convict self-deadlocks and blocking cycles,
// and finally runs Tarjan over the class graph to extract cycles.
func BuildLockOrderModel(ip *Interproc) *LockOrderModel {
	lm := &LockOrderModel{
		ip:       ip,
		names:    make(map[*types.Var]string),
		acquires: make(map[*FuncNode]map[*types.Var]*acqInfo),
		edges:    make(map[lockEdgeKey]*LockEdge),
	}
	for _, comp := range ip.Graph.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if lm.scanAcquires(n) {
					changed = true
				}
			}
		}
	}
	for _, n := range ip.Graph.Nodes {
		lm.replay(n)
	}
	lm.NumClasses = len(lm.names)
	lm.NumEdges = len(lm.edges)
	lm.findCycles()
	return lm
}

// ClassName renders a lock class for diagnostics: "catalog.Catalog.mu"
// for struct fields, "pkg.globalMu" for package variables, and
// "pkg.mu@file.go:12" for function-local mutexes (disambiguated by
// their declaration site).
func (lm *LockOrderModel) ClassName(cls *types.Var) string {
	if name, ok := lm.names[cls]; ok {
		return name
	}
	return cls.Name()
}

// registerClass records a display name for a class the first time it is
// seen; owner is the named type holding a field class, nil otherwise.
func (lm *LockOrderModel) registerClass(cls *types.Var, owner *types.Named) {
	if _, ok := lm.names[cls]; ok {
		return
	}
	pkgName := ""
	if cls.Pkg() != nil {
		pkgName = cls.Pkg().Name() + "."
	}
	switch {
	case owner != nil:
		lm.names[cls] = pkgName + owner.Obj().Name() + "." + cls.Name()
	case cls.IsField():
		lm.names[cls] = pkgName + cls.Name()
	case cls.Parent() != nil && cls.Parent().Parent() == types.Universe:
		// Package-level mutex variable.
		lm.names[cls] = pkgName + cls.Name()
	default:
		// Function-local mutex: pin the declaration site so two locals
		// named mu in different functions stay distinguishable.
		p := lm.ip.loader.Fset.Position(cls.Pos())
		lm.names[cls] = fmt.Sprintf("%s%s@%s:%d", pkgName, cls.Name(), filepath.Base(p.Filename), p.Line)
	}
}

// scanAcquires computes one monotone approximation of n's transitive
// lock-class acquire set. First-witness-wins keeps chains deterministic
// (body order, then target order); a read entry upgrades to write when
// a write acquisition of the same class appears. Every direct lock
// operation also registers its class's display name here, before any
// replay renders one.
func (lm *LockOrderModel) scanAcquires(n *FuncNode) bool {
	acq := lm.acquires[n]
	if acq == nil {
		acq = make(map[*types.Var]*acqInfo)
		lm.acquires[n] = acq
	}
	changed := false
	add := func(cls *types.Var, info acqInfo) {
		cur, ok := acq[cls]
		if !ok {
			c := info
			acq[cls] = &c
			changed = true
			return
		}
		if cur.read && !info.read {
			*cur = info
			changed = true
		}
	}
	walkNode(n.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isDeferredCall(n.Pkg, call) {
			return true
		}
		if op, ok := syncLockOp(n.Pkg, call); ok {
			if op.cls != nil {
				lm.registerClass(op.cls, op.owner)
				if op.acquires() {
					add(op.cls, acqInfo{pos: call.Pos(), read: op.name == "RLock"})
				}
			}
			return true
		}
		site := lm.ip.Graph.SiteOf(call)
		if site == nil || site.Interface || site.InGo {
			return true
		}
		for _, t := range site.Targets {
			for cls, info := range lm.acquires[t] {
				add(cls, acqInfo{pos: call.Pos(), read: info.read, next: t})
			}
		}
		return true
	}, nil)
	return changed
}

// replay walks n with the held set in force before each node and emits
// lock-order edges, self-deadlock findings, and blocking-cycle findings.
func (lm *LockOrderModel) replay(n *FuncNode) {
	lm.ip.walkHeld(n, nil, func(m ast.Node, s heldSet) {
		if len(s) == 0 {
			return
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			lm.visitCall(n, m, s)
		case *ast.SendStmt:
			lm.checkBlockSite(n, m.Chan, m.Pos(), blockSend, s)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				lm.checkBlockSite(n, m.X, m.Pos(), blockRecv, s)
			}
		}
	})
}

// sortedHeld returns the held locks of known class in deterministic
// order (class name, then acquisition position, then instance path).
func (lm *LockOrderModel) sortedHeld(s heldSet) []heldLock {
	out := make([]heldLock, 0, len(s))
	for h := range s {
		if h.cls != nil {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		an, bn := lm.ClassName(a.cls), lm.ClassName(b.cls)
		if an != bn {
			return an < bn
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.ref.path < b.ref.path
	})
	return out
}

// visitCall handles one non-deferred call reached with locks held. A
// direct Lock/RLock convicts a same-instance re-acquisition and grows an
// order edge from every other held class; a resolved call reports what
// its callees acquire or park on.
func (lm *LockOrderModel) visitCall(n *FuncNode, call *ast.CallExpr, s heldSet) {
	if op, ok := syncLockOp(n.Pkg, call); ok {
		if op.cls == nil || !op.acquires() {
			return
		}
		read := op.name == "RLock"
		desc := op.name + " " + lm.ClassName(op.cls)
		for _, h := range lm.sortedHeld(s) {
			last := lockStep{fn: n, pos: call.Pos(), desc: desc}
			switch {
			case h.ref == op.ref:
				lm.reportSelfDeadlock(n, call.Pos(), h, read, "")
				continue
			case h.cls == op.cls:
				// Same class, provably different instance: a self-edge
				// (two instances of one class locked nested) — a real
				// order hazard unless ranked by address, which the graph
				// cannot see.
				last.desc += " (second instance)"
			}
			lm.addEdgeSteps(h, op.cls, read, []lockStep{last})
		}
		return
	}
	// Direct wg.Wait() is an external sync call with no module target, so
	// it is checked before the target gate below.
	lm.checkDirectWait(n, call, s)
	site := lm.ip.Graph.SiteOf(call)
	if site == nil || site.Interface || site.InGo || len(site.Targets) == 0 {
		return
	}
	lm.reportCallEvents(n, call, site, s)
	lm.checkBlockingCallee(n, call, site, s)
}

// reportCallEvents emits, for one resolved call with locks held: the
// self-deadlock conviction when a callee re-acquires a held
// receiver-path mutex, and the lock-order edges from each held class to
// each class the callees transitively acquire.
func (lm *LockOrderModel) reportCallEvents(n *FuncNode, call *ast.CallExpr, site *CallSite, s heldSet) {
	var base lockRef
	baseOK := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		base, baseOK = refPath(n.Pkg, sel.X)
	}
	held := lm.sortedHeld(s)
	for _, t := range site.Targets {
		// Same-instance re-acquisition through the callee: the summary's
		// receiver-relative acquire paths, rebased onto this call's
		// receiver, name the exact mutexes the callee will take.
		if baseOK {
			if ts := lm.ip.SummaryOf(t); ts != nil {
				rels := make([]string, 0, len(ts.AcquiresRecvPaths))
				for rel := range ts.AcquiresRecvPaths {
					rels = append(rels, rel)
				}
				sort.Strings(rels)
				for _, rel := range rels {
					ref := lockRef{root: base.root, path: base.path + rel}
					for _, h := range held {
						if h.ref == ref {
							lm.reportSelfDeadlock(n, call.Pos(), h, ts.AcquiresRecvPaths[rel]&acquireWrite == 0, nodeDisplayName(t))
						}
					}
				}
			}
		}
		// Order edges: held class → every class the callee acquires.
		// Same-class pairs are skipped here — instance identity through
		// a call is unknowable in general, and the receiver-relative
		// check above already convicts the provable same-instance case.
		for _, cls := range lm.sortedAcqClasses(t) {
			info := lm.acquires[t][cls]
			for _, h := range held {
				if h.cls == cls {
					continue
				}
				steps := lm.expandChain(t, cls, lockStep{fn: n, pos: call.Pos(), desc: "calls " + nodeDisplayName(t)})
				lm.addEdgeSteps(h, cls, info.read, steps)
			}
		}
	}
}

// sortedAcqClasses returns t's acquire-set classes in name order.
func (lm *LockOrderModel) sortedAcqClasses(t *FuncNode) []*types.Var {
	acq := lm.acquires[t]
	out := make([]*types.Var, 0, len(acq))
	for cls := range acq {
		out = append(out, cls)
	}
	sort.Slice(out, func(i, j int) bool { return lm.ClassName(out[i]) < lm.ClassName(out[j]) })
	return out
}

// expandChain renders the witness suffix for "this call ends in an
// acquisition of cls": the call step, then each hop of the callee
// chain down to the direct Lock.
func (lm *LockOrderModel) expandChain(t *FuncNode, cls *types.Var, first lockStep) []lockStep {
	steps := []lockStep{first}
	for depth := 0; t != nil && depth < 64; depth++ {
		info := lm.acquires[t][cls]
		if info == nil {
			break
		}
		desc := "Lock " + lm.ClassName(cls)
		if info.read {
			desc = "RLock " + lm.ClassName(cls)
		}
		if info.next != nil {
			desc = "calls " + nodeDisplayName(info.next)
		}
		steps = append(steps, lockStep{fn: t, pos: info.pos, desc: desc})
		t = info.next
	}
	return steps
}

// addEdgeSteps records edge h.cls→cls, prefixing the witness with the
// held lock's own acquisition step. First witness wins; a read-read
// edge upgrades (witness and all) when a write occurrence appears.
func (lm *LockOrderModel) addEdgeSteps(h heldLock, cls *types.Var, read bool, steps []lockStep) {
	heldDesc := "Lock " + lm.ClassName(h.cls)
	if h.read {
		heldDesc = "RLock " + lm.ClassName(h.cls)
	}
	full := append([]lockStep{{fn: steps[0].fn, pos: h.pos, desc: heldDesc}}, steps...)
	key := lockEdgeKey{from: h.cls, to: cls}
	allRead := h.read && read
	e := lm.edges[key]
	if e == nil {
		lm.edges[key] = &LockEdge{From: h.cls, To: cls, AllRead: allRead, Steps: full}
		return
	}
	if e.AllRead && !allRead {
		e.AllRead = false
		e.Steps = full
	}
}

// reportSelfDeadlock files one self-deadlock conviction at pos: the
// goroutine already holds h and is about to (re-)acquire the same
// instance. via names the callee when the re-acquisition is
// interprocedural.
func (lm *LockOrderModel) reportSelfDeadlock(n *FuncNode, pos token.Pos, h heldLock, read bool, via string) {
	if h.read && read {
		// Recursive RLock: only deadlocks when a writer wedges between
		// the two read acquisitions; out of scope to keep the signal
		// crisp (documented in DESIGN.md).
		return
	}
	kind := "Lock after Lock (sync.Mutex and RWMutex are not reentrant)"
	switch {
	case h.read && !read:
		kind = "RLock→Lock upgrade (the writer waits for its own reader)"
	case !h.read && read:
		kind = "RLock after Lock (the reader waits for its own writer)"
	}
	fset := lm.ip.loader.Fset
	msg := fmt.Sprintf("self-deadlock: %s already held (acquired at %s)",
		lm.ClassName(h.cls), posString(fset, h.pos))
	if via != "" {
		msg = fmt.Sprintf("self-deadlock: call to %s acquires %s, already held since %s",
			via, lm.ClassName(h.cls), posString(fset, h.pos))
	}
	lm.selfFindings = append(lm.selfFindings, deadlockFinding{
		pos: pos,
		pkg: n.Pkg,
		msg: msg + "; " + kind,
	})
}

// posString renders "file.go:12" for witness chains.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// nodeDisplayName is the qualified graph-node name used in witnesses.
func nodeDisplayName(n *FuncNode) string { return n.Name }

// ---------------------------------------------------------------------
// Blocking-cycle detection

type blockKind int

const (
	blockSend blockKind = iota
	blockRecv
	blockWGWait
)

func (k blockKind) String() string {
	switch k {
	case blockSend:
		return "send on unbuffered channel"
	case blockRecv:
		return "receive on unbuffered channel"
	default:
		return "WaitGroup.Wait"
	}
}

// counterpartVerb says what the other goroutine must do to unblock the
// parked one.
func (k blockKind) counterpartVerb() string {
	switch k {
	case blockSend:
		return "receive"
	case blockRecv:
		return "send"
	default:
		return "call Done"
	}
}

// checkBlockSite handles a direct channel send/receive in n: with locks
// held and the channel provably unbuffered, any goroutine spawned in n
// that touches the same channel but acquires a held lock class before
// its counterpart operation closes a lock-wait cycle.
func (lm *LockOrderModel) checkBlockSite(n *FuncNode, chanExpr ast.Expr, pos token.Pos, kind blockKind, s heldSet) {
	if inSelectWithDefault(n.Pkg, chanExpr) {
		return
	}
	ident, ok := terminalObj(n.Pkg, chanExpr)
	if !ok || !unbufferedChanIn(n, ident) {
		return
	}
	lm.checkCounterparts(n, ident, pos, kind, s)
}

// checkDirectWait convicts a direct wg.Wait() with locks held when a
// goroutine spawned in n must acquire a held class before its Done.
func (lm *LockOrderModel) checkDirectWait(n *FuncNode, call *ast.CallExpr, s heldSet) {
	fn := calleeFunc(n.Pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Wait" || !isWaitGroupMethod(fn) {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if ident, ok := terminalObj(n.Pkg, sel.X); ok {
		lm.checkCounterparts(n, ident, call.Pos(), blockWGWait, s)
	}
}

// checkBlockingCallee extends block-site detection through helpers: a
// resolved callee summarized as blocking on a WaitGroup (or a channel)
// that is passed the tracked object as an argument parks the caller
// just the same.
func (lm *LockOrderModel) checkBlockingCallee(n *FuncNode, call *ast.CallExpr, site *CallSite, s heldSet) {
	var blocksWG, blocksChan bool
	for _, t := range site.Targets {
		if ts := lm.ip.SummaryOf(t); ts != nil {
			blocksWG = blocksWG || ts.BlocksOnWG
			blocksChan = blocksChan || ts.BlocksOnChan
		}
	}
	if !blocksWG && !blocksChan {
		return
	}
	for _, arg := range call.Args {
		ident, ok := terminalObj(n.Pkg, arg)
		if !ok {
			continue
		}
		t := n.Pkg.TypeOf(arg)
		if t == nil {
			continue
		}
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if blocksWG && isWaitGroupType(t) {
			lm.checkCounterparts(n, ident, call.Pos(), blockWGWait, s)
		}
		if blocksChan {
			if _, isChan := t.Underlying().(*types.Chan); isChan && unbufferedChanIn(n, ident) {
				// The blocked direction inside the helper is unknown;
				// either way the counterpart must touch the channel.
				lm.checkCounterparts(n, ident, call.Pos(), blockRecv, s)
			}
		}
	}
}

// checkCounterparts scans the goroutines n spawns for one that (a)
// performs the counterpart operation on ident and (b) may acquire a
// held lock class before reaching it.
func (lm *LockOrderModel) checkCounterparts(n *FuncNode, ident types.Object, pos token.Pos, kind blockKind, s heldSet) {
	heldCls := make(map[*types.Var]heldLock)
	for _, h := range lm.sortedHeld(s) {
		if _, ok := heldCls[h.cls]; !ok {
			heldCls[h.cls] = h
		}
	}
	for _, site := range n.Sites {
		if !site.InGo {
			continue
		}
		for _, t := range site.Targets {
			if !counterpartTouches(t, ident, kind) {
				continue
			}
			acqPos, cls, ok := lm.spawneeAcquiresBeforeOp(t, ident, kind, heldCls)
			if !ok {
				continue
			}
			fset := lm.ip.loader.Fset
			lm.blockFindings = append(lm.blockFindings, deadlockFinding{
				pos: pos,
				pkg: n.Pkg,
				msg: fmt.Sprintf("lock-wait cycle: goroutine parks on %s while holding %s, but the goroutine started at %s that must %s acquires %s first (at %s); neither side can proceed",
					kind, lm.ClassName(heldCls[cls].cls), posString(fset, site.Call.Pos()),
					kind.counterpartVerb(), lm.ClassName(cls), posString(fset, acqPos)),
			})
			return // one conviction per block site keeps the signal readable
		}
	}
}

// counterpartTouches reports whether the spawned body t syntactically
// performs the counterpart operation for kind on ident (nested literals
// included — a producer may wrap its send).
func counterpartTouches(t *FuncNode, ident types.Object, kind blockKind) bool {
	found := false
	ast.Inspect(t.Body, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if kind == blockWGWait {
				if fn := calleeFunc(t.Pkg, m); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "sync" && fn.Name() == "Done" && isWaitGroupMethod(fn) {
					if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
						if obj, ok := terminalObj(t.Pkg, sel.X); ok && obj == ident {
							found = true
						}
					}
				}
			}
		case *ast.SendStmt:
			if kind == blockRecv || kind == blockSend {
				if obj, ok := terminalObj(t.Pkg, m.Chan); ok && obj == ident {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && (kind == blockSend || kind == blockRecv) {
				if obj, ok := terminalObj(t.Pkg, m.X); ok && obj == ident {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// spawneeAcquiresBeforeOp runs a may-analysis over the spawned body: the
// fact "counterpart op not yet performed" survives until a non-deferred
// counterpart operation on ident, and any lock acquisition of a held
// class while the fact survives closes the cycle. A deferred wg.Done
// deliberately does NOT clear the fact — it runs at exit, after every
// acquisition in the body.
func (lm *LockOrderModel) spawneeAcquiresBeforeOp(t *FuncNode, ident types.Object, kind blockKind, heldCls map[*types.Var]heldLock) (token.Pos, *types.Var, bool) {
	const notDone = "notDone"
	g := t.Pkg.CFGOf(t.Body)
	isCounterpart := func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if kind != blockWGWait {
				return false
			}
			if isDeferredCall(t.Pkg, m) {
				return false
			}
			fn := calleeFunc(t.Pkg, m)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Done" || !isWaitGroupMethod(fn) {
				return false
			}
			sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			obj, ok := terminalObj(t.Pkg, sel.X)
			return ok && obj == ident
		case *ast.SendStmt:
			obj, ok := terminalObj(t.Pkg, m.Chan)
			return kind != blockWGWait && ok && obj == ident
		case *ast.UnaryExpr:
			if m.Op != token.ARROW || kind == blockWGWait {
				return false
			}
			obj, ok := terminalObj(t.Pkg, m.X)
			return ok && obj == ident
		}
		return false
	}
	transfer := func(bl *Block, s map[string]uint8, visit func(cls *types.Var, pos token.Pos)) {
		for _, stmt := range bl.Nodes {
			walkNode(stmt, func(m ast.Node) bool {
				if isCounterpart(m) {
					delete(s, notDone)
					return true
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isDeferredCall(t.Pkg, call) {
					return true
				}
				if s[notDone] == 0 || visit == nil {
					return true
				}
				if op, ok := syncLockOp(t.Pkg, call); ok {
					if _, held := heldCls[op.cls]; held && op.acquires() {
						visit(op.cls, call.Pos())
					}
					return true
				}
				site := lm.ip.Graph.SiteOf(call)
				if site == nil || site.Interface || site.InGo {
					return true
				}
				for _, tgt := range site.Targets {
					for _, cls := range lm.sortedAcqClasses(tgt) {
						if _, held := heldCls[cls]; held {
							visit(cls, call.Pos())
						}
					}
				}
				return true
			}, nil)
		}
	}
	in := fixpoint(g, map[string]uint8{notDone: 1}, func(bl *Block, s map[string]uint8) {
		transfer(bl, s, nil)
	}, nil)
	var foundPos token.Pos
	var foundCls *types.Var
	for _, bl := range g.Blocks {
		if foundCls != nil {
			break
		}
		s, ok := in[bl]
		if !ok {
			continue
		}
		transfer(bl, cloneFacts(s), func(cls *types.Var, pos token.Pos) {
			if foundCls == nil {
				foundCls = cls
				foundPos = pos
			}
		})
	}
	return foundPos, foundCls, foundCls != nil
}

// terminalObj resolves the identity object of a channel/WaitGroup
// expression: a local variable for locals and captures, the field
// object for struct fields (shared across instances — a deliberate
// over-approximation).
func terminalObj(pkg *Package, e ast.Expr) (types.Object, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pkg.ObjectOf(e)
		return obj, obj != nil
	case *ast.SelectorExpr:
		obj := pkg.ObjectOf(e.Sel)
		return obj, obj != nil
	case *ast.StarExpr:
		return terminalObj(pkg, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return terminalObj(pkg, e.X)
		}
	}
	return nil, false
}

// unbufferedChanIn reports whether obj's visible creation inside n is
// an unbuffered make(chan T). Channels created elsewhere (parameters,
// fields) stay silent: capacity unknown, no conviction.
func unbufferedChanIn(n *FuncNode, obj types.Object) bool {
	unbuffered := false
	decided := false
	check := func(e ast.Expr) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(call.Args) == 0 {
			return
		}
		if _, isBuiltin := n.Pkg.ObjectOf(id).(*types.Builtin); !isBuiltin {
			return
		}
		decided = true
		if len(call.Args) == 1 {
			unbuffered = true
			return
		}
		if tv, ok := n.Pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
			unbuffered = true
		}
	}
	walkNode(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || n.Pkg.ObjectOf(id) != obj || len(m.Lhs) != len(m.Rhs) {
					continue
				}
				check(m.Rhs[i])
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				if n.Pkg.ObjectOf(name) != obj || i >= len(m.Values) {
					continue
				}
				check(m.Values[i])
			}
		}
		return !decided
	}, nil)
	return unbuffered
}

func isWaitGroupType(t types.Type) bool {
	n := derefNamed(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// ---------------------------------------------------------------------
// Cycle extraction

// findCycles condenses the class graph with Tarjan and extracts, per
// non-trivial SCC, one shortest closing cycle through the
// lexicographically smallest member — one diagnostic per deadlock
// family, not one per edge permutation.
func (lm *LockOrderModel) findCycles() {
	adj := make(map[*types.Var][]*types.Var)
	nodes := make(map[*types.Var]bool)
	for key := range lm.edges {
		adj[key.from] = append(adj[key.from], key.to)
		nodes[key.from], nodes[key.to] = true, true
	}
	ordered := make([]*types.Var, 0, len(nodes))
	for v := range nodes {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(i, j int) bool { return lm.ClassName(ordered[i]) < lm.ClassName(ordered[j]) })
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return lm.ClassName(adj[v][i]) < lm.ClassName(adj[v][j]) })
	}

	// Tarjan over the class graph.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 1
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range ordered {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	lm.NumSCCs = len(sccs)

	for _, comp := range sccs {
		inComp := make(map[*types.Var]bool, len(comp))
		for _, v := range comp {
			inComp[v] = true
		}
		if len(comp) == 1 {
			if lm.edges[lockEdgeKey{from: comp[0], to: comp[0]}] == nil {
				continue // trivial SCC, no self-loop
			}
		}
		sort.Slice(comp, func(i, j int) bool { return lm.ClassName(comp[i]) < lm.ClassName(comp[j]) })
		cycle := lm.shortestCycle(comp[0], inComp, adj)
		if len(cycle) == 0 {
			continue
		}
		allRead := true
		for _, e := range cycle {
			if !e.AllRead {
				allRead = false
			}
		}
		if allRead {
			lm.ReadsCycles++
			continue
		}
		lm.Cycles = append(lm.Cycles, &LockCycle{Classes: comp, Edges: cycle})
		for _, e := range cycle {
			if len(e.Steps) > lm.MaxWitness {
				lm.MaxWitness = len(e.Steps)
			}
		}
	}
	lm.NumCycles = len(lm.Cycles)
	fset := lm.ip.loader.Fset
	sort.Slice(lm.Cycles, func(i, j int) bool {
		a := fset.Position(lm.Cycles[i].Edges[0].Steps[0].pos)
		b := fset.Position(lm.Cycles[j].Edges[0].Steps[0].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
}

// shortestCycle BFSes from start over intra-SCC edges back to start and
// returns the closing edges in order.
func (lm *LockOrderModel) shortestCycle(start *types.Var, inComp map[*types.Var]bool, adj map[*types.Var][]*types.Var) []*LockEdge {
	type bfsNode struct {
		v    *types.Var
		prev *bfsNode
	}
	queue := []*bfsNode{{v: start}}
	seen := map[*types.Var]bool{start: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, w := range adj[cur.v] {
			if !inComp[w] {
				continue
			}
			if w == start {
				// Close the cycle: unwind the path.
				var path []*types.Var
				for n := cur; n != nil; n = n.prev {
					path = append([]*types.Var{n.v}, path...)
				}
				path = append(path, start)
				edges := make([]*LockEdge, 0, len(path)-1)
				for i := 0; i+1 < len(path); i++ {
					e := lm.edges[lockEdgeKey{from: path[i], to: path[i+1]}]
					if e == nil {
						return nil
					}
					edges = append(edges, e)
				}
				return edges
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, &bfsNode{v: w, prev: cur})
			}
		}
	}
	return nil
}

// RenderCycle flattens one cycle into a single-line diagnostic: the
// class ring, then each edge's witness as a file:line chain.
func (lm *LockOrderModel) RenderCycle(c *LockCycle) string {
	fset := lm.ip.loader.Fset
	var ring []string
	for _, e := range c.Edges {
		ring = append(ring, lm.ClassName(e.From))
	}
	ring = append(ring, lm.ClassName(c.Edges[0].From))
	var b strings.Builder
	fmt.Fprintf(&b, "potential deadlock: lock-order cycle %s", strings.Join(ring, " -> "))
	for i, e := range c.Edges {
		fmt.Fprintf(&b, "; path %d (%s before %s): ", i+1, lm.ClassName(e.From), lm.ClassName(e.To))
		for j, st := range e.Steps {
			if j > 0 {
				b.WriteString(" -> ")
			}
			fmt.Fprintf(&b, "%s %s [%s]", posString(fset, st.pos), st.desc, st.fn.Name)
		}
	}
	return b.String()
}

// Dot renders the lock-order graph in Graphviz DOT form, cycle edges in
// red, for `gislint -dot lockorder`.
func (lm *LockOrderModel) Dot() string {
	cycleEdge := make(map[lockEdgeKey]bool)
	for _, c := range lm.Cycles {
		for _, e := range c.Edges {
			cycleEdge[lockEdgeKey{from: e.From, to: e.To}] = true
		}
	}
	keys := make([]lockEdgeKey, 0, len(lm.edges))
	for k := range lm.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if fa, fb := lm.ClassName(a.from), lm.ClassName(b.from); fa != fb {
			return fa < fb
		}
		return lm.ClassName(a.to) < lm.ClassName(b.to)
	})
	fset := lm.ip.loader.Fset
	var b strings.Builder
	fmt.Fprintf(&b, "// gislint lock-order graph: %d class(es), %d edge(s), %d SCC(s), %d cycle(s)\n",
		lm.NumClasses, lm.NumEdges, lm.NumSCCs, lm.NumCycles)
	b.WriteString("digraph lockorder {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, k := range keys {
		e := lm.edges[k]
		attrs := fmt.Sprintf("label=%q", posString(fset, e.Steps[len(e.Steps)-1].pos))
		if e.AllRead {
			attrs += ", style=dashed"
		}
		if cycleEdge[k] {
			attrs += ", color=red, penwidth=2"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", lm.ClassName(e.From), lm.ClassName(e.To), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

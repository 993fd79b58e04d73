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

// The module-wide lock-order graph. The mediator layers coordinators over
// autonomous components — the merge that fans out unions and key-shipped
// joins, 2PC, admission control — and every layer carries its own mutex. No per-site
// analyzer can see the hang that emerges from their composition:
// goroutine 1 acquires catalog.mu then engine.mu, goroutine 2 acquires
// them in the opposite order, and the federation stalls with no error,
// no panic, and no log line. This file recovers the ordering discipline
// statically.
//
// Lock identity is the CLASS of a mutex — the go/types object of the
// mutex field (catalog.Catalog.mu) or of the package-level/local mutex
// variable — so every instance of a struct shares one graph node, the
// way runtime lock-order checkers (lockdep) key by lock class. The graph
// has an edge A→B whenever some code path acquires class B while holding
// class A, either directly or by calling (transitively, through the call
// graph) a function that acquires B. Each edge carries a WITNESS: the
// file:line chain from the acquisition of A through the call sites to
// the acquisition of B. Tarjan over the graph finds the cycles; every
// cycle is a potential deadlock and is reported with the two (or more)
// conflicting witness paths. Cycles whose every edge is read-read (RLock
// held, RLock acquired) are not reported: shared read locks admit each
// other, so an all-reader cycle cannot wedge on its own.
//
// The per-function held sets come from the shared walker (heldlocks.go).
// An edge "caller holds A, callee acquires B" is created at the caller's
// call site from the callee's transitive acquire set, so the may-hold
// the graph needs costs no entry-set propagation.

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

// LockCycle is one reported cycle: the closing edge sequence, each edge
// carrying its witness path.
type LockCycle struct {
	Edges []*LockEdge
}

type lockEdgeKey struct{ from, to *types.Var }

// LockOrderModel is the module-wide lock-order graph, built once per Run.
type LockOrderModel struct {
	ip    *Interproc
	names map[*types.Var]string
	// acquires is the per-function transitive lock-class acquire set.
	acquires map[*FuncNode]map[*types.Var]*acqInfo
	edges    map[lockEdgeKey]*LockEdge

	// Cycles are the lock-order cycles, sorted by the position of their
	// first witness step.
	Cycles []*LockCycle
}

// BuildLockOrderModel computes transitive acquire sets bottom-up over
// the call-graph SCCs, then replays every function's held-set dataflow
// to grow the edge set, and finally runs Tarjan over the class graph to
// extract cycles.
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
// a lock-order edge for every acquisition made with a lock held.
func (lm *LockOrderModel) replay(n *FuncNode) {
	lm.ip.walkHeld(n, func(m ast.Node, s heldSet) {
		if call, ok := m.(*ast.CallExpr); ok && len(s) > 0 {
			lm.visitCall(n, call, s)
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
// direct Lock/RLock grows an order edge from every other held instance;
// a resolved call grows one to each class its callees acquire.
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
				// Re-locking the held instance orders nothing (it hangs
				// the first test that runs the path).
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
	site := lm.ip.Graph.SiteOf(call)
	if site == nil || site.Interface || site.InGo {
		return
	}
	// Same-class pairs are skipped: instance identity through a call is
	// unknowable in general.
	held := lm.sortedHeld(s)
	for _, t := range site.Targets {
		for _, cls := range lm.sortedAcqClasses(t) {
			info := lm.acquires[t][cls]
			for _, h := range held {
				if h.cls == cls {
					continue
				}
				steps := lm.expandChain(t, cls, lockStep{fn: n, pos: call.Pos(), desc: "calls " + t.Name})
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
			desc = "calls " + info.next.Name
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

// posString renders "file.go:12" for witness chains.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

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
			continue
		}
		lm.Cycles = append(lm.Cycles, &LockCycle{Edges: cycle})
	}
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

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lock-guard inference, RacerD-style. The mediator concentrates every
// component-system's traffic in one process, so its shared mutable state
// — catalog maps, engine health, per-operator stats — is guarded by a
// zoo of struct-local mutexes with no type-system connection between a
// mutex and the fields it protects. This file recovers that connection
// statically: for every module struct that carries a sync.Mutex/RWMutex
// alongside data fields, it observes which mutex is held at each access
// of each field (flow-sensitively, over the per-function CFGs, with
// held-set propagation through the call graph so helper methods inherit
// their callers' locks) and infers "mu guards f" by majority. Accesses
// that contradict an inferred guard are the lockguard analyzer's
// findings.
//
// The held-set propagation is a top-down complement to the bottom-up
// summaries of summary.go: a method called only while its receiver's
// mutex is held analyzes its body with that mutex in the entry held set.
// Entry sets are the MEET (intersection) over every resolved module
// call site, computed as an increasing fixpoint from the empty set —
// the result under-approximates "held", so inheritance never invents a
// guard that some call path does not actually hold. Spawn sites (`go`)
// contribute nothing: a goroutine does not hold its spawner's locks.
//
// Inference rule: for a field f of struct T and the best candidate
// mutex m of T, with g accesses holding m and u accesses holding no
// mutex of T (both counted after discarding pre-escape accesses in the
// function that created the value), m guards f when
//
//	g >= 2 && g > 2*u
//
// — at least two corroborating guarded accesses, and guarded accesses
// outnumbering unguarded ones by better than two to one. Fields whose
// access pattern is genuinely mixed never reach the threshold, so the
// analyzer stays quiet where the code has no convention to enforce.

// guardStruct is one module struct type with at least one mutex field
// and at least one data field.
type guardStruct struct {
	named   *types.Named
	mutexes []*types.Var // sync.Mutex / sync.RWMutex fields (incl. embedded)
	fields  []*types.Var // non-mutex data fields
}

// guardAccess is one observed access of a guarded struct's data field.
type guardAccess struct {
	field *types.Var
	gs    *guardStruct
	pos   token.Pos
	pkg   *Package
	node  *FuncNode
	// held records which mutex fields of gs were held on the access
	// base path when the access executed.
	held map[*types.Var]bool
	// write marks stores (assignment targets, IncDec, mutation through
	// an index expression).
	write bool
}

// GuardInference is the verdict for one (struct, field) pair.
type GuardInference struct {
	Field   *types.Var
	Struct  *types.Named
	Mutex   *types.Var
	Guarded int // accesses holding Mutex
	Total   int // all counted accesses
}

// GuardModel is the module-wide inference result.
type GuardModel struct {
	ip       *Interproc
	structs  map[*types.Named]*guardStruct
	byField  map[*types.Var]*guardStruct
	inferred map[*types.Var]*GuardInference
	// violations are accesses contradicting an inferred guard, sorted
	// by position for deterministic reporting.
	violations []*guardAccess

	// Census for the driver's -stats.
	NumStructs  int // guardable structs discovered
	NumFields   int // data fields across them
	NumAccesses int // counted accesses
	NumGuarded  int // fields with an inferred guard
}

// InferenceFor returns the inference for a data field, nil when no guard
// was inferred.
func (gm *GuardModel) InferenceFor(f *types.Var) *GuardInference { return gm.inferred[f] }

// mutexFieldType classifies a field type as a guarding mutex:
// sync.Mutex, sync.RWMutex, or a pointer to either.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// BuildGuardModel discovers guardable structs, runs the held-set
// dataflow over every function body, propagates held sets through the
// call graph, and folds the observed accesses into per-field guard
// inferences.
func BuildGuardModel(ip *Interproc) *GuardModel {
	gm := &GuardModel{
		ip:       ip,
		structs:  make(map[*types.Named]*guardStruct),
		byField:  make(map[*types.Var]*guardStruct),
		inferred: make(map[*types.Var]*GuardInference),
	}
	gm.discoverStructs(ip)
	if len(gm.structs) == 0 {
		return gm
	}

	// Entry held sets per function, grown to a fixpoint: a method (or a
	// function taking the struct as a parameter, or a directly invoked
	// literal) inherits a mutex only when EVERY resolved module call
	// site holds it.
	entries := make(map[*FuncNode]map[lockRef]bool)
	for changed := true; changed; {
		changed = false
		next := gm.propagateOnce(ip, entries)
		for n, refs := range next {
			cur := entries[n]
			for r := range refs {
				if !cur[r] {
					if cur == nil {
						cur = make(map[lockRef]bool)
						entries[n] = cur
					}
					cur[r] = true
					changed = true
				}
			}
		}
	}

	// Final pass: collect accesses with their held sets.
	var accesses []*guardAccess
	for _, n := range ip.Graph.Nodes {
		accesses = append(accesses, gm.collectAccesses(ip, n, entries[n])...)
	}
	gm.infer(accesses)
	return gm
}

// discoverStructs finds every named struct type in the loaded module
// packages with at least one mutex field and one data field.
func (gm *GuardModel) discoverStructs(ip *Interproc) {
	for _, pkg := range ip.loader.Loaded() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			gs := &guardStruct{named: named}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if isMutexType(f.Type()) {
					gs.mutexes = append(gs.mutexes, f)
				} else {
					gs.fields = append(gs.fields, f)
				}
			}
			if len(gs.mutexes) == 0 || len(gs.fields) == 0 {
				continue
			}
			gm.structs[named] = gs
			for _, f := range gs.fields {
				gm.byField[f] = gs
			}
			gm.NumStructs++
			gm.NumFields += len(gs.fields)
		}
	}
}

// propagateOnce computes, from the current entry sets, the held-set
// contribution every resolved call site makes to its targets, and
// returns the per-target meet. Interface-dispatched sites and `go`
// spawns contribute the empty set (they force the meet to empty).
func (gm *GuardModel) propagateOnce(ip *Interproc, entries map[*FuncNode]map[lockRef]bool) map[*FuncNode]map[lockRef]bool {
	contrib := make(map[*FuncNode]map[lockRef]bool) // meet so far
	seen := make(map[*FuncNode]bool)
	meet := func(t *FuncNode, refs map[lockRef]bool) {
		if !seen[t] {
			seen[t] = true
			contrib[t] = refs
			return
		}
		cur := contrib[t]
		for r := range cur {
			if !refs[r] {
				delete(cur, r)
			}
		}
	}
	for _, n := range ip.Graph.Nodes {
		// The held set at entry to every call site of n; a deferred call
		// is charged the set at its registration.
		siteHeld := make(map[*ast.CallExpr]heldSet)
		ip.walkHeld(n, entryFacts(entries[n]), func(m ast.Node, held heldSet) {
			switch m := m.(type) {
			case *ast.CallExpr:
				siteHeld[m] = cloneFacts(held)
			case *ast.DeferStmt:
				siteHeld[m.Call] = cloneFacts(held)
			}
		})
		for _, site := range n.Sites {
			if site.Interface {
				for _, t := range site.Targets {
					meet(t, nil)
				}
				continue
			}
			held := siteHeld[site.Call]
			for _, t := range site.Targets {
				if site.InGo || len(held) == 0 {
					meet(t, nil)
					continue
				}
				meet(t, gm.translateHeld(n, site.Call, t, held))
			}
		}
	}
	return contrib
}

// translateHeld maps the caller-frame held refs onto the callee frame:
// a held mutex on the call's receiver path becomes the callee receiver's
// mutex; a held mutex on an argument path becomes the parameter's; a
// directly invoked literal keeps the refs verbatim (its free variables
// are the caller's objects).
func (gm *GuardModel) translateHeld(n *FuncNode, call *ast.CallExpr, t *FuncNode, held heldSet) map[lockRef]bool {
	out := make(map[lockRef]bool)
	if t.Lit != nil {
		for h := range held {
			out[h.ref] = true
		}
		return out
	}
	sig := nodeSig(t)
	if sig == nil {
		return out
	}
	// Receiver translation: c.helper() with c.mu held seeds r.mu.
	if recv := sig.Recv(); recv != nil && recv.Name() != "" && recv.Name() != "_" {
		if gs := gm.structOf(recv.Type()); gs != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if base, ok := refPath(n.Pkg, sel.X); ok {
					for _, m := range gs.mutexes {
						if holdsRef(held, lockRef{root: base.root, path: base.path + "." + m.Name()}) {
							out[lockRef{root: recv, path: recv.Name() + "." + m.Name()}] = true
						}
					}
				}
			}
		}
	}
	// Parameter translation: helper(c) with c.mu held seeds p.mu.
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		pv := params.At(i)
		if pv.Name() == "" || pv.Name() == "_" {
			continue
		}
		gs := gm.structOf(pv.Type())
		if gs == nil {
			continue
		}
		base, ok := refPath(n.Pkg, call.Args[i])
		if !ok {
			continue
		}
		for _, m := range gs.mutexes {
			if holdsRef(held, lockRef{root: base.root, path: base.path + "." + m.Name()}) {
				out[lockRef{root: pv, path: pv.Name() + "." + m.Name()}] = true
			}
		}
	}
	return out
}

// structOf resolves a (possibly pointer) type to its guardStruct.
func (gm *GuardModel) structOf(t types.Type) *guardStruct {
	named := derefNamed(t)
	if named == nil {
		return nil
	}
	return gm.structs[named]
}

// collectAccesses walks n's body in CFG order and records every data
// field access of a guardable struct together with the held mutexes of
// that struct on the access base path.
func (gm *GuardModel) collectAccesses(ip *Interproc, n *FuncNode, entry map[lockRef]bool) []*guardAccess {
	var out []*guardAccess
	record := func(sel *ast.SelectorExpr, s heldSet) {
		f, ok := n.Pkg.ObjectOf(sel.Sel).(*types.Var)
		if !ok || !f.IsField() {
			return
		}
		gs := gm.byField[f]
		if gs == nil {
			return
		}
		base, ok := refPath(n.Pkg, sel.X)
		if !ok {
			return
		}
		if gm.preEscape(n, base.root) {
			return
		}
		held := make(map[*types.Var]bool)
		for _, m := range gs.mutexes {
			if holdsRef(s, lockRef{root: base.root, path: base.path + "." + m.Name()}) {
				held[m] = true
			}
		}
		out = append(out, &guardAccess{
			field: f,
			gs:    gs,
			pos:   sel.Sel.Pos(),
			pkg:   n.Pkg,
			node:  n,
			held:  held,
			write: isWriteAccess(n.Pkg, sel),
		})
	}
	ip.walkHeld(n, entryFacts(entry), func(m ast.Node, held heldSet) {
		if sel, ok := m.(*ast.SelectorExpr); ok {
			record(sel, held)
		}
	})
	return out
}

// entryFacts turns an inherited entry set into walker facts; only the
// instance matters to the guard model.
func entryFacts(entry map[lockRef]bool) heldSet {
	if len(entry) == 0 {
		return nil
	}
	s := make(heldSet, len(entry))
	for r := range entry {
		s[heldLock{ref: r}] = 1
	}
	return s
}

// preEscape reports whether root is a local variable n itself created
// (composite literal, new, or zero-value declaration) — accesses before
// the value escapes its creator are single-threaded by construction and
// must not dilute the inference.
func (gm *GuardModel) preEscape(n *FuncNode, root types.Object) bool {
	v, ok := root.(*types.Var)
	if !ok || v.IsField() || isSigParam(nodeSig(n), v) {
		return false
	}
	// Package-level variables are shared; only body-local creations
	// qualify.
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return false
	}
	created := false
	walkNode(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || n.Pkg.Info.Defs[id] != v || len(m.Lhs) != len(m.Rhs) {
					continue
				}
				if isCreationExpr(m.Rhs[i]) {
					created = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				if n.Pkg.Info.Defs[name] != v {
					continue
				}
				if len(m.Values) == 0 {
					created = true // var x T: zero value, locally owned
				} else if i < len(m.Values) && isCreationExpr(m.Values[i]) {
					created = true
				}
			}
		}
		return !created
	}, nil)
	return created
}

// isCreationExpr recognizes expressions that mint a fresh value: T{...},
// &T{...}, new(T).
func isCreationExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// isWriteAccess reports whether sel is mutated: an assignment target,
// an IncDec operand, an address-taken operand, or the base of an index
// or field chain that is.
func isWriteAccess(pkg *Package, sel *ast.SelectorExpr) bool {
	var cur ast.Node = sel
	for i := 0; i < 6; i++ {
		parent := pkg.Parent(cur)
		switch p := parent.(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		case *ast.UnaryExpr:
			if p.Op == token.AND && p.X == cur {
				return true
			}
			return false
		case *ast.IndexExpr:
			if p.X != ast.Node(cur) {
				return false
			}
			cur = p
		case *ast.ParenExpr, *ast.StarExpr:
			cur = p.(ast.Node)
		default:
			return false
		}
	}
	return false
}

// infer folds accesses into per-field verdicts and records violations.
func (gm *GuardModel) infer(accesses []*guardAccess) {
	byField := make(map[*types.Var][]*guardAccess)
	for _, a := range accesses {
		byField[a.field] = append(byField[a.field], a)
		gm.NumAccesses++
	}
	for f, as := range byField {
		gs := gm.byField[f]
		// Races need a write: a field never stored to outside its
		// creator (Store.name-style immutable configuration) is safe to
		// read from any goroutine, however many locked sections happen
		// to read it too.
		wrote := false
		for _, a := range as {
			if a.write {
				wrote = true
				break
			}
		}
		if !wrote {
			continue
		}
		// Best candidate mutex: the one held at the most accesses.
		var best *types.Var
		bestG := 0
		for _, m := range gs.mutexes {
			g := 0
			for _, a := range as {
				if a.held[m] {
					g++
				}
			}
			if g > bestG {
				best, bestG = m, g
			}
		}
		if best == nil {
			continue
		}
		u := 0
		for _, a := range as {
			if !a.held[best] {
				u++
			}
		}
		if bestG < 2 || bestG <= 2*u {
			continue
		}
		gm.inferred[f] = &GuardInference{
			Field:   f,
			Struct:  gs.named,
			Mutex:   best,
			Guarded: bestG,
			Total:   len(as),
		}
		gm.NumGuarded++
		for _, a := range as {
			if !a.held[best] {
				gm.violations = append(gm.violations, a)
			}
		}
	}
	sort.Slice(gm.violations, func(i, j int) bool { return gm.violations[i].pos < gm.violations[j].pos })
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// This file builds the module-wide call graph the interprocedural layer
// rests on. Nodes are function bodies — declared functions, methods, and
// function literals (each literal is its own node, matching the flow
// analyzers' scope model). Edges are call sites resolved three ways:
//
//   - direct calls and concrete method calls resolve through go/types;
//   - interface method calls resolve conservatively by method-name
//     match against every module method (the mediator's Source/Tx/...
//     interfaces have few same-named methods, so the over-approximation
//     stays tight);
//   - calls through function-typed variables resolve when the variable
//     is assigned exactly once in the enclosing body from a function
//     reference or literal (single-assignment tracking).
//
// The graph is an over-approximation: a missing edge can hide a real
// behavior, so resolution errs toward more edges, and analyzers treat
// unresolved callees pessimistically.

// FuncNode is one function body in the call graph.
type FuncNode struct {
	// Obj is the declared function or method object; nil for literals.
	Obj *types.Func
	// Lit is the function literal; nil for declarations.
	Lit *ast.FuncLit
	// Body is the analyzed function body.
	Body *ast.BlockStmt
	// Typ is the syntactic signature (for parameter lookup).
	Typ *ast.FuncType
	// Pkg is the package the body lives in.
	Pkg *Package
	// Name is the qualified display name ("exec.runMerge",
	// "wire.(*Client).Execute", "exec.runMerge$1").
	Name string
	// Sites are the call sites inside Body (not inside nested literals).
	Sites []*CallSite

	// tarjan scratch
	index, low int
	onStack    bool
}

// CallSite is one call expression inside a FuncNode's body.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the static callee object when the call is through a
	// named function or method (possibly interface or external); nil
	// for calls through function values and literals.
	Callee *types.Func
	// Targets are the module-internal bodies the call may reach.
	Targets []*FuncNode
	// InGo marks `go f(...)` — the call runs on a new goroutine, so its
	// blocking behavior does not propagate to the spawner.
	InGo bool
	// Interface marks targets resolved by conservative method-name match
	// on an interface call; consumers that need precision (summary
	// propagation) skip such target sets.
	Interface bool
}

// CallGraph is the module-wide graph plus its site index.
type CallGraph struct {
	Nodes []*FuncNode

	byObj  map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	bySite map[*ast.CallExpr]*CallSite
}

// NodeOf returns the graph node for a declared function, nil when the
// function has no analyzable body in the module.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.byObj[fn] }

// SiteOf returns the call-site record for a call expression, nil when
// the expression is outside every analyzed body.
func (g *CallGraph) SiteOf(call *ast.CallExpr) *CallSite { return g.bySite[call] }

// BuildCallGraph constructs the graph over every package the loader has
// type-checked (the analyzed set plus its module-internal dependencies,
// so a single-package run still sees cross-package bodies).
func BuildCallGraph(l *Loader) *CallGraph {
	g := &CallGraph{
		byObj:  make(map[*types.Func]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
		bySite: make(map[*ast.CallExpr]*CallSite),
	}
	pkgs := l.Loaded()

	// Pass 1: nodes, plus the method-name index for interface resolution.
	methodsByName := make(map[string][]*FuncNode)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			addNodes(g, l.Fset, pkg, f, methodsByName)
		}
	}

	// Pass 2: resolve call sites.
	for _, n := range g.Nodes {
		resolveSites(g, n, methodsByName)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Name < g.Nodes[j].Name })
	return g
}

// addNodes creates a FuncNode for every declaration and literal in f.
func addNodes(g *CallGraph, fset *token.FileSet, pkg *Package, f *ast.File, methodsByName map[string][]*FuncNode) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return true
			}
			obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				return true
			}
			node := &FuncNode{
				Obj:  obj,
				Body: fn.Body,
				Typ:  fn.Type,
				Pkg:  pkg,
				Name: qualifiedName(obj),
			}
			g.Nodes = append(g.Nodes, node)
			g.byObj[obj] = node
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				methodsByName[obj.Name()] = append(methodsByName[obj.Name()], node)
			}
		case *ast.FuncLit:
			node := &FuncNode{
				Lit:  fn,
				Body: fn.Body,
				Typ:  fn.Type,
				Pkg:  pkg,
				Name: litName(fset, pkg, fn),
			}
			g.Nodes = append(g.Nodes, node)
			g.byLit[fn] = node
		}
		return true
	})
}

// litName renders a stable display name for a literal from its position.
// File-and-line, not the raw token.Pos offset: offsets depend on the
// order files were added to the shared FileSet, which varies across
// runs with the parse worker pool — and the name reaches diagnostic
// messages, which must be deterministic.
func litName(fset *token.FileSet, pkg *Package, fn *ast.FuncLit) string {
	p := fset.Position(fn.Pos())
	return fmt.Sprintf("%s.func@%s:%d", pkg.Types.Name(), filepath.Base(p.Filename), p.Line)
}

// qualifiedName renders "pkg.Func" or "pkg.(*Recv).Method".
func qualifiedName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + fn.Name()
	}
	rt := sig.Recv().Type()
	star := ""
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
		star = "*"
	}
	name := rt.String()
	if n, isNamed := rt.(*types.Named); isNamed {
		name = n.Obj().Name()
	}
	return fmt.Sprintf("%s(%s%s).%s", pkg, star, name, fn.Name())
}

// resolveSites walks n's own statements (not nested literals) and
// records every call with its resolved targets.
func resolveSites(g *CallGraph, n *FuncNode, methodsByName map[string][]*FuncNode) {
	walkNode(n.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := &CallSite{Call: call}
		if parent, ok := n.Pkg.Parent(call).(*ast.GoStmt); ok {
			site.InGo = parent.Call == call
		}
		site.Callee, site.Targets, site.Interface = resolveCall(g, n, call, methodsByName)
		n.Sites = append(n.Sites, site)
		g.bySite[call] = site
		return true
	}, func(fl *ast.FuncLit) {
		// Nested literals own their sites; nothing to record here.
	})
}

// resolveCall determines the possible targets of one call expression.
// The third result marks target sets produced by conservative
// interface-method name matching.
func resolveCall(g *CallGraph, n *FuncNode, call *ast.CallExpr, methodsByName map[string][]*FuncNode) (*types.Func, []*FuncNode, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if t := g.byLit[fun]; t != nil {
			return nil, []*FuncNode{t}, false
		}
	case *ast.Ident:
		switch obj := n.Pkg.ObjectOf(fun).(type) {
		case *types.Func:
			if t := g.byObj[obj]; t != nil {
				return obj, []*FuncNode{t}, false
			}
			return obj, nil, false
		case *types.Var:
			return nil, resolveFuncValue(g, n, obj), false
		}
	case *ast.SelectorExpr:
		switch obj := n.Pkg.ObjectOf(fun.Sel).(type) {
		case *types.Func:
			if t := g.byObj[obj]; t != nil {
				return obj, []*FuncNode{t}, false
			}
			if isInterfaceMethod(obj) {
				// Conservative type-name match: any module method with
				// the same name may be the dynamic target.
				return obj, methodsByName[obj.Name()], true
			}
			return obj, nil, false
		case *types.Var:
			return nil, resolveFuncValue(g, n, obj), false
		}
	}
	return nil, nil, false
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, iface := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// resolveFuncValue resolves a call through a function-typed variable by
// single-assignment tracking: if v is bound exactly once in n's body and
// the binding is a function reference or literal, the call resolves to
// it; any second binding (or a binding we cannot see, e.g. a parameter)
// leaves the call unresolved.
func resolveFuncValue(g *CallGraph, n *FuncNode, v *types.Var) []*FuncNode {
	var bound ast.Expr
	bindings := 0
	record := func(e ast.Expr) {
		bindings++
		bound = e
	}
	walkNode(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || n.Pkg.ObjectOf(id) != v {
					continue
				}
				if len(m.Lhs) == len(m.Rhs) {
					record(m.Rhs[i])
				} else {
					bindings += 2 // multi-value binding: opaque
				}
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				if n.Pkg.ObjectOf(name) != v {
					continue
				}
				if i < len(m.Values) {
					record(m.Values[i])
				}
			}
		}
		return true
	}, nil)
	if bindings != 1 || bound == nil {
		return nil
	}
	switch e := ast.Unparen(bound).(type) {
	case *ast.FuncLit:
		if t := g.byLit[e]; t != nil {
			return []*FuncNode{t}
		}
	case *ast.Ident:
		if fn, ok := n.Pkg.ObjectOf(e).(*types.Func); ok {
			if t := g.byObj[fn]; t != nil {
				return []*FuncNode{t}
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := n.Pkg.ObjectOf(e.Sel).(*types.Func); ok {
			if t := g.byObj[fn]; t != nil {
				return []*FuncNode{t}
			}
		}
	}
	return nil
}

// SCCs returns the strongly connected components of the graph in
// reverse topological order (callees before callers), so a bottom-up
// summary computation can process each component once and only iterate
// within components.
func (g *CallGraph) SCCs() [][]*FuncNode {
	// Tarjan bookkeeping lives on the nodes; clear it so repeated calls
	// (the fixpoint builder, then tests or tooling) see a fresh graph.
	for _, v := range g.Nodes {
		v.index, v.low, v.onStack = 0, 0, false
	}
	var (
		sccs  [][]*FuncNode
		stack []*FuncNode
		next  = 1
	)
	var strongconnect func(v *FuncNode)
	strongconnect = func(v *FuncNode) {
		v.index, v.low = next, next
		next++
		stack = append(stack, v)
		v.onStack = true
		for _, site := range v.Sites {
			for _, w := range site.Targets {
				if w.index == 0 {
					strongconnect(w)
					if w.low < v.low {
						v.low = w.low
					}
				} else if w.onStack && w.index < v.low {
					v.low = w.index
				}
			}
		}
		if v.low == v.index {
			var comp []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range g.Nodes {
		if v.index == 0 {
			strongconnect(v)
		}
	}
	return sccs
}

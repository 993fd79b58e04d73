package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// AtomicMix flags variables accessed through sync/atomic in one place
// and by plain load/store in another. Mixing the two gives neither
// atomicity nor visibility: the plain access races every atomic one,
// and the race detector only catches the interleavings that actually
// run. The usual way this creeps in is a counter read "just for
// logging" or reset "only in tests' setup path" that skips the
// atomic.Load/Store the rest of the code uses.
//
// The model is module-wide and syntactic, computed once per Run: pass 1
// collects every variable whose address feeds a sync/atomic call; pass
// 2 collects, for exactly those variables, every other load or store.
// Addressable fields of atomic.Int64-family types need no analysis —
// the type system already forces every access through the atomic API.
// Accesses in the function that created the enclosing value are skipped
// (initialization before the value escapes is single-threaded by
// construction, same ownership rule the guard model uses).
func AtomicMix() *Analyzer {
	a := &Analyzer{
		Name: "atomicmix",
		Doc:  "a variable accessed via sync/atomic must never be accessed by plain load/store",
	}
	a.Run = func(pass *Pass) {
		ip := pass.Interproc()
		if ip == nil {
			return
		}
		am := atomicModelOf(ip)
		for _, u := range am.mixed {
			if u.pkg != pass.Pkg {
				continue
			}
			verb := "read"
			if u.write {
				verb = "written"
			}
			pass.Reportf(u.pos, "%s is accessed via sync/atomic elsewhere but plainly %s here; mixing atomic and plain access races",
				am.describe[u.v], verb)
		}
	}
	return a
}

// atomicPlainUse is one non-atomic access of an atomically-used
// variable.
type atomicPlainUse struct {
	v     *types.Var
	pos   token.Pos
	pkg   *Package
	write bool
}

// atomicModel is the module-wide census behind the analyzer.
type atomicModel struct {
	// atomicVars: variables whose address reaches a sync/atomic call.
	atomicVars map[*types.Var]bool
	// mixed: plain accesses of those variables, position-sorted.
	mixed []atomicPlainUse
	// describe renders each variable for diagnostics ("Engine.rows" for
	// a field, "served" for a package-level var).
	describe map[*types.Var]string
}

var atomicModels sync.Map // *Interproc → *atomicModel

// atomicModelOf computes (once per Interproc) the module's atomic/plain
// access census.
func atomicModelOf(ip *Interproc) *atomicModel {
	if m, ok := atomicModels.Load(ip); ok {
		return m.(*atomicModel)
	}
	am := buildAtomicModel(ip)
	actual, _ := atomicModels.LoadOrStore(ip, am)
	return actual.(*atomicModel)
}

func buildAtomicModel(ip *Interproc) *atomicModel {
	am := &atomicModel{
		atomicVars: make(map[*types.Var]bool),
		describe:   make(map[*types.Var]string),
	}
	gm := ip.Guards

	// Pass 1: variables whose address feeds sync/atomic.
	for _, n := range ip.Graph.Nodes {
		walkNode(n.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isAtomicPkgCall(n.Pkg, call) {
				return true
			}
			for _, arg := range call.Args {
				ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				if v := addressedVar(n.Pkg, ue.X); v != nil {
					am.atomicVars[v] = true
					am.describe[v] = describeVar(v, n.Pkg, ue.X)
				}
			}
			return true
		}, nil)
	}
	if len(am.atomicVars) == 0 {
		return am
	}

	// Pass 2: plain accesses of exactly those variables.
	for _, n := range ip.Graph.Nodes {
		walkNode(n.Body, func(m ast.Node) bool {
			var v *types.Var
			var base ast.Expr
			switch m := m.(type) {
			case *ast.SelectorExpr:
				fv, ok := n.Pkg.ObjectOf(m.Sel).(*types.Var)
				if !ok || !fv.IsField() || !am.atomicVars[fv] {
					return true
				}
				v, base = fv, m.X
			case *ast.Ident:
				iv, ok := n.Pkg.ObjectOf(m).(*types.Var)
				if !ok || iv.IsField() || !am.atomicVars[iv] {
					return true
				}
				v = iv
			default:
				return true
			}
			if feedsAtomicCall(n.Pkg, m) {
				return true
			}
			if base != nil && gm != nil {
				if ref, ok := refPath(n.Pkg, base); ok && gm.preEscape(n, ref.root) {
					return true
				}
			}
			am.mixed = append(am.mixed, atomicPlainUse{
				v:     v,
				pos:   m.Pos(),
				pkg:   n.Pkg,
				write: isPlainWrite(n.Pkg, m),
			})
			return true
		}, nil)
	}
	sort.Slice(am.mixed, func(i, j int) bool { return am.mixed[i].pos < am.mixed[j].pos })
	return am
}

// isAtomicPkgCall reports whether call resolves into package
// sync/atomic (the function forms; the Int64-family methods are safe by
// construction).
func isAtomicPkgCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// addressedVar resolves &e's operand to the variable it denotes: a
// struct field (via selector) or a plain variable.
func addressedVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := pkg.ObjectOf(e.Sel).(*types.Var); ok && v.IsField() {
			return v
		}
	case *ast.Ident:
		if v, ok := pkg.ObjectOf(e).(*types.Var); ok && !v.IsField() {
			return v
		}
	case *ast.IndexExpr:
		// &xs[i]: per-element atomics are beyond the model.
	}
	return nil
}

// feedsAtomicCall reports whether the access node m sits under an & that
// is an argument of a sync/atomic call — then it IS the atomic access,
// not a plain one.
func feedsAtomicCall(pkg *Package, m ast.Node) bool {
	cur := m
	for i := 0; i < 4; i++ {
		parent := pkg.Parent(cur)
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.UnaryExpr:
			if p.Op != token.AND {
				return false
			}
			cur = p
		case *ast.CallExpr:
			return isAtomicPkgCall(pkg, p)
		default:
			return false
		}
	}
	return false
}

// isPlainWrite reports whether the access is a store: assignment target
// or IncDec operand.
func isPlainWrite(pkg *Package, m ast.Node) bool {
	parent := pkg.Parent(m)
	if p, ok := parent.(*ast.ParenExpr); ok {
		m, parent = p, pkg.Parent(p)
	}
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == m {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == m
	}
	return false
}

// describeVar renders a variable for diagnostics: fields as
// "Struct.field" (falling back to the access base when the owner is
// unnamed), plain variables by name.
func describeVar(v *types.Var, pkg *Package, base ast.Expr) string {
	if !v.IsField() {
		return v.Name()
	}
	if sel, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
		base = sel.X
	}
	if named := derefNamed(pkg.TypeOf(base)); named != nil {
		return named.Obj().Name() + "." + v.Name()
	}
	return v.Name()
}

package plan

import (
	"gis/internal/expr"
	"gis/internal/types"
)

// A plan the engine keeps for a statement's text is run again with other
// parameter values (DESIGN.md "The statement cache"). That is sound only
// where no value could have changed what planning made: ValueFree decides
// it on the logical plan, and Rebind makes the kept plan's copy for the
// next values.

// maxParams is how many parameters a plan that is bound again may have.
const maxParams = 64

// Params is where a statement's parameters stand in its plan: Slots[i]
// is the constant the parser read parameter i into, which the optimized
// plan holds wherever the conjunct that reads it went — a scan's pushed
// filter, its residual, a Filter or a join's condition, several of them
// when the conjunct was pushed into each fragment.
type Params struct {
	Slots []*expr.Const
	// lists are the IN lists of parameters, parameters lo..hi-1 each:
	// the estimate counts a list's distinct values, so the plan stands
	// only for values that differ.
	lists [maxLists][2]uint8
	nList int
}

// maxLists is how many IN lists of parameters a plan bound again may hold.
const maxLists = 4

// Fits reports whether vals may be bound into the plan made for the slots'
// values: as many values, each of its slot's kind, and those of an IN
// list all different.
func (p *Params) Fits(vals []types.Value) bool {
	if len(vals) != len(p.Slots) {
		return false
	}
	for i, v := range vals {
		if v.Kind() != p.Slots[i].Val.Kind() {
			return false
		}
	}
	for _, l := range p.lists[:p.nList] {
		for i := int(l[0]); i < int(l[1]); i++ {
			for j := i + 1; j < int(l[1]); j++ {
				if vals[i].Compare(vals[j]) == 0 {
					return false
				}
			}
		}
	}
	return true
}

// ValueFree reports whether no value of the parameters could change
// what Optimize makes of n, a logical plan as Builder built it, whose
// parameters were read into p.Slots (sql.ParseSlots); it fills the rest
// of p for Rebind when so. It is so when, besides the catalog and the
// options, planning reads of each parameter only its kind:
//   - it is the constant of a conjunct col = ?, or one of an IN list of
//     parameters alone, col IN (?, …), in a WHERE or ON condition, and
//     stands nowhere else;
//   - col is a column of a global table, read through the plan's scans
//     and bare-column projections, of the parameter's kind, which every
//     fragment of the table copies as it is and no partition predicate
//     reads: neither the translation to a fragment nor Fragment.Split
//     nor pruning reads the value;
//   - no other conjunct constrains that column of that scan, so no value
//     can leave its range empty, and the estimate of an equality is one
//     distinct value and of an IN list as many as it has parameters
//     (Fits holds a later call's values to that).
//
// A statement holding a subquery is the caller's to refuse: the planner
// sees it materialized.
func ValueFree(n Node, p *Params) bool {
	if len(p.Slots) > maxParams {
		return false
	}
	v := valueCheck{slots: p.Slots, p: p, ok: true}
	p.nList = 0
	v.node(n)
	if !v.ok || v.found != 1<<len(p.Slots)-1 {
		return false
	}
	// No column a parameter constrains is constrained twice.
	for i, a := range v.cols[:v.ncol] {
		for _, b := range v.cols[i+1 : v.ncol] {
			if a.scan == b.scan && a.col == b.col && (a.param || b.param) {
				return false
			}
		}
	}
	return true
}

// valueCheck is ValueFree's walk. cols are the scan columns the plan's
// conjuncts constrain to constants, param where a parameter does.
type valueCheck struct {
	slots []*expr.Const
	p     *Params
	found uint64
	ok    bool
	cols  [16]constrained
	ncol  int
}

type constrained struct {
	scan  *GlobalScan
	col   int
	param bool
}

func (v *valueCheck) node(n Node) {
	EachInput(n, func(in *Node) { v.node(*in) })
	switch t := n.(type) {
	case *Filter:
		v.conjuncts(t.Pred, t.Input)
	case *Join:
		v.conjuncts(t.Cond, t)
	case *GlobalScan:
		v.nowhere(t.Filter)
	case *Values:
		for _, row := range t.Rows {
			for _, e := range row {
				v.nowhere(e)
			}
		}
	default:
		eachExpr(n, func(e *expr.Expr) { v.nowhere(*e) })
	}
}

// nowhere refuses e when it holds a parameter.
func (v *valueCheck) nowhere(e expr.Expr) {
	expr.Walk(e, func(x expr.Expr) bool {
		if c, ok := x.(*expr.Const); ok && v.slot(c) >= 0 {
			v.ok = false
		}
		return v.ok
	})
}

// slot is the parameter c was read for; -1 when c is a literal.
func (v *valueCheck) slot(c *expr.Const) int {
	for i, s := range v.slots {
		if s == c {
			return i
		}
	}
	return -1
}

// conjuncts checks each conjunct of e, bound over in's columns.
func (v *valueCheck) conjuncts(e expr.Expr, in Node) {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		v.conjuncts(b.L, in)
		v.conjuncts(b.R, in)
		return
	}
	col, isConstraint := expr.ColumnConstraint(e)
	lo, hi, param := v.params(e)
	if !param {
		v.nowhere(e)
		if isConstraint {
			v.constrain(in, col.Index, false)
		}
		return
	}
	for i := lo; i < hi; i++ {
		if v.found&(1<<i) != 0 {
			v.ok = false // one parameter read twice
		}
		v.found |= 1 << i
	}
	scan, g := v.constrain(in, col.Index, true)
	if scan == nil || !v.ok {
		v.ok = false
		return
	}
	kind := v.slots[lo].Val.Kind()
	if scan.Table.Schema.Columns[g].Type != kind {
		v.ok = false
	}
	for _, f := range scan.Table.Fragments {
		if m := &f.Columns[g]; !m.Identity() || f.Decides(g) {
			v.ok = false
		}
	}
	if _, in := e.(*expr.InList); in && hi-lo > 1 {
		if v.p.nList == maxLists {
			v.ok = false
			return
		}
		v.p.lists[v.p.nList] = [2]uint8{uint8(lo), uint8(hi)}
		v.p.nList++
	}
}

// params recognises col = ? (either way round) and col IN (?, …) of
// parameters alone, and returns the parameters it reads, lo..hi-1, in
// the order they were read; each reads its parameter's kind.
func (v *valueCheck) params(e expr.Expr) (lo, hi int, ok bool) {
	switch n := e.(type) {
	case *expr.Binary:
		col, op, _, isCmp := expr.ColumnComparison(n)
		if !isCmp || op != expr.OpEq || col.Index < 0 {
			return 0, 0, false
		}
		c, _ := n.R.(*expr.Const)
		if c == nil {
			c, _ = n.L.(*expr.Const)
		}
		i := v.slot(c)
		return i, i + 1, i >= 0
	case *expr.InList:
		if _, isCol := n.E.(*expr.ColRef); !isCol || n.Negate || len(n.List) == 0 {
			return 0, 0, false
		}
		lo = -1
		for k, el := range n.List {
			c, _ := el.(*expr.Const)
			i := -1
			if c != nil {
				i = v.slot(c)
			}
			switch {
			case k == 0:
				lo = i
			case (i < 0) != (lo < 0), i >= 0 && i != hi:
				return 0, 0, false // a literal among parameters, or out of order
			}
			hi = i + 1
		}
		return lo, hi, lo >= 0
	default:
		return 0, 0, false
	}
}

// constrain records that a conjunct constrains column col of in's output
// to constants, and returns the scan column behind it; nil when there is
// none to be had (it is computed, or read through a grouping or a union).
func (v *valueCheck) constrain(in Node, col int, param bool) (*GlobalScan, int) {
	scan, g := origin(in, col)
	if scan == nil {
		return nil, -1
	}
	if v.ncol == len(v.cols) {
		v.ok = false
		return nil, -1
	}
	v.cols[v.ncol] = constrained{scan: scan, col: g, param: param}
	v.ncol++
	return scan, g
}

// origin resolves column col of n's output to the global scan column it
// is a copy of.
func origin(n Node, col int) (*GlobalScan, int) {
	for {
		switch t := n.(type) {
		case *GlobalScan:
			if t.Cols != nil {
				if col >= len(t.Cols) {
					return nil, -1
				}
				col = t.Cols[col]
			}
			if col < 0 || col >= t.Table.Schema.Len() {
				return nil, -1
			}
			return t, col
		case *Filter:
			n = t.Input
		case *Sort:
			n = t.Input
		case *Limit:
			n = t.Input
		case *Join:
			if lw := t.L.Schema().Len(); col >= lw {
				n, col = t.R, col-lw
			} else {
				n = t.L
			}
		case *Project:
			ref, ok := t.Exprs[col].(*expr.ColRef)
			if !ok {
				return nil, -1
			}
			n, col = t.Input, ref.Index
		default:
			return nil, -1
		}
	}
}

// Rebind returns n, a published plan made for the values in p's slots,
// with vals in their place: the nodes on a path from the root to a slot
// are copied, and the expressions above it in each, and every other node
// is n's own. n is not written. vals must fit (Params.Fits).
func Rebind(n Node, p *Params, vals []types.Value) Node {
	if len(vals) == 0 {
		return n
	}
	r := rebinder{slots: p.Slots, consts: make([]expr.Const, len(vals))}
	for i, v := range vals {
		r.consts[i].Val = v
	}
	return r.node(n)
}

// rebinder is Rebind's walk. The scans of a union that follow one another
// (FragScan.follow) share a filter: seen keeps each expression's copy and
// each scan's, so the copies share it too and a copied scan follows its
// copied predecessor.
type rebinder struct {
	slots  []*expr.Const
	consts []expr.Const
	exprs  [8][2]expr.Expr
	nexpr  int
	scans  [8][2]*FragScan
	nscan  int
}

func (r *rebinder) expr(e expr.Expr) expr.Expr {
	if e == nil {
		return nil
	}
	for _, s := range r.exprs[:r.nexpr] {
		if s[0] == e {
			return s[1]
		}
	}
	out := expr.Transform(e, func(x expr.Expr) expr.Expr {
		if c, ok := x.(*expr.Const); ok {
			for i, s := range r.slots {
				if s == c {
					return &r.consts[i]
				}
			}
		}
		return x
	})
	if out != e && r.nexpr < len(r.exprs) {
		r.exprs[r.nexpr] = [2]expr.Expr{e, out}
		r.nexpr++
	}
	return out
}

func (r *rebinder) node(n Node) Node {
	if fs, ok := n.(*FragScan); ok {
		return r.fragScan(fs)
	}
	out := n
	i := 0
	EachInput(n, func(in *Node) {
		if nw := r.node(*in); nw != *in {
			if out == n {
				out = shallowCopy(n)
			}
			*inputSlot(out, i) = nw
		}
		i++
	})
	i = 0
	owned := false
	eachExpr(n, func(e *expr.Expr) {
		if nw := r.expr(*e); nw != *e {
			if out == n {
				out = shallowCopy(n)
			}
			if !owned {
				ownExprs(out)
				owned = true
			}
			*exprSlot(out, i) = nw
		}
		i++
	})
	return out
}

func (r *rebinder) fragScan(s *FragScan) Node {
	for _, c := range r.scans[:r.nscan] {
		if c[0] == s {
			return c[1]
		}
	}
	filter, residual := r.expr(s.Query.Filter), r.expr(s.GlobalResidual)
	if filter == s.Query.Filter && residual == s.GlobalResidual {
		return s
	}
	cp := *s
	cp.Query.Filter, cp.GlobalResidual = filter, residual
	for _, c := range r.scans[:r.nscan] {
		if c[0] == s.like {
			cp.like = c[1]
		}
	}
	if r.nscan < len(r.scans) {
		r.scans[r.nscan] = [2]*FragScan{s, &cp}
		r.nscan++
	}
	return &cp
}

// shallowCopy copies n, and a union's slice of inputs, so that an input
// slot of the copy may be written; its schema is n's.
func shallowCopy(n Node) Node {
	switch t := n.(type) {
	case *Filter:
		cp := *t
		return &cp
	case *Project:
		cp := *t
		return &cp
	case *Join:
		cp := *t
		return &cp
	case *Aggregate:
		cp := *t
		return &cp
	case *Sort:
		cp := *t
		return &cp
	case *Limit:
		cp := *t
		return &cp
	case *Union:
		cp := *t
		cp.Inputs = append([]Node(nil), t.Inputs...)
		return &cp
	default:
		// GlobalScan, FragScan and Values have no input or expression
		// slot (eachExpr); a FragScan is copied by fragScan.
		return n
	}
}

// ownExprs gives n, a copy, slices of its own of the expressions it
// shares with the node it was copied from, so that an expression slot of
// it may be written.
func ownExprs(n Node) {
	switch t := n.(type) {
	case *Project:
		t.Exprs = append([]expr.Expr(nil), t.Exprs...)
	case *Aggregate:
		t.GroupBy = append([]expr.Expr(nil), t.GroupBy...)
		t.Aggs = append([]AggItem(nil), t.Aggs...)
	case *Sort:
		t.Keys = append([]SortKey(nil), t.Keys...)
	default:
		// A Filter's predicate and a join's condition are fields.
	}
}

// inputSlot is n's i-th input slot, as EachInput visits them.
func inputSlot(n Node, i int) *Node {
	var slot *Node
	k := 0
	EachInput(n, func(in *Node) {
		if k == i {
			slot = in
		}
		k++
	})
	return slot
}

// exprSlot is n's i-th expression slot, as eachExpr visits them.
func exprSlot(n Node, i int) *expr.Expr {
	var slot *expr.Expr
	k := 0
	eachExpr(n, func(e *expr.Expr) {
		if k == i {
			slot = e
		}
		k++
	})
	return slot
}

// settle stores every node's schema, bottom-up, so that a plan Optimize
// returns is only read from then on: Schema computes a Project's,
// Join's, Aggregate's or GlobalScan's when first asked, which a plan run
// by two statements at once must not be.
func settle(n Node) {
	EachInput(n, func(in *Node) { settle(*in) })
	n.Schema()
}

package plan

import (
	"gis/internal/expr"
	"gis/internal/types"
)

// A plan the engine keeps for a statement's text is run again with other
// parameter values (DESIGN.md "The statement cache"). ValueFree decides
// on the logical plan that nothing planning made could differ for other
// values but two choices, which Rebind makes again for each call's values
// on the kept plan's copy: which fragments of a scan survive, and a
// two-way join's strategy.

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
	// prunes are the scans a parameter constrains a column of that a
	// partition predicate reads, whose surviving fragments Rebind
	// re-derives.
	prunes [maxPrunes]pruneCheck
	nPrune int
	// priced is set when an estimate reads a parameter's value: a range,
	// or a column constrained again. Rebind then re-derives the strategy
	// of each join it copies whose strategy the estimates chose.
	priced bool
}

// pruneCheck is one scan whose fragments a parameter may prune: live has
// bit i set when the kept plan scans the table's fragment i (Kept).
type pruneCheck struct {
	scan *GlobalScan
	live uint64
}

// maxLists is how many IN lists of parameters a plan bound again may
// hold, and maxPrunes how many scans whose fragments it re-derives.
const (
	maxLists  = 4
	maxPrunes = 4
)

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

// ValueFree reports whether the plan Optimize makes of n, a logical plan
// as Builder built it, whose parameters were read into p.Slots
// (sql.ParseSlots), may be kept for other values: all it reads of a
// parameter but its kind is re-derived by Rebind. It fills the rest of p
// when so. That holds when:
//   - each parameter is the constant of a conjunct col op ? (op one of =,
//     <, <=, >, >=, either way round), or one of an IN list of
//     parameters alone, col IN (?, …), in a WHERE or ON condition, and
//     stands nowhere else;
//   - col is a column of a global table, read through the plan's scans
//     and bare-column projections, of the parameter's kind, which every
//     fragment of the table copies as it is: the translation to a
//     fragment carries the slot itself, and Fragment.Split reads the
//     value only where Excludes does, which Rebind re-derives when a
//     partition predicate reads col;
//   - where an estimate reads a value (priced: a range, or a column
//     constrained again), only a two-way join's strategy is priced from
//     it, which Rebind re-derives too: no chain of three inner-joined
//     relations or more is ordered by estimate, and no join is priced
//     over an aggregate, whose estimate changes when it is pushed into
//     the scans after the join was priced.
//
// An equality alone on its column, or an IN list, is estimated by the
// column's distinct values, whatever the value (Fits holds an IN list's
// to being different). A statement holding a subquery is the caller's to
// refuse: the planner sees it materialized.
func ValueFree(n Node, p *Params) bool {
	if len(p.Slots) > maxParams {
		return false
	}
	v := valueCheck{slots: p.Slots, p: p, ok: true}
	p.nList, p.nPrune, p.priced = 0, 0, false
	v.node(n)
	if !v.ok || v.found != 1<<len(p.Slots)-1 {
		return false
	}
	for i, a := range v.cols[:v.ncol] {
		if !a.param {
			continue
		}
		for j, b := range v.cols[:v.ncol] {
			if j != i && a.scan == b.scan && a.col == b.col {
				p.priced = true // constrained again
			}
		}
		p.priced = p.priced || a.ranged
		if a.prunes && !p.addPrune(a.scan) {
			return false
		}
	}
	return !p.priced || !v.reordered
}

// addPrune records that a parameter may prune scan's fragments; false
// when there are too many such scans or fragments to keep track of.
func (p *Params) addPrune(scan *GlobalScan) bool {
	for _, c := range p.prunes[:p.nPrune] {
		if c.scan == scan {
			return true
		}
	}
	if p.nPrune == maxPrunes || len(scan.Table.Fragments) > 64 {
		return false
	}
	p.prunes[p.nPrune] = pruneCheck{scan: scan}
	p.nPrune++
	return true
}

// Kept records, once Optimize has made the plan that is kept, which
// fragments of each scan a parameter may prune the plan reads: those its
// filter, as pushed down, does not exclude.
func (p *Params) Kept() {
	for i := range p.prunes[:p.nPrune] {
		c := &p.prunes[i]
		c.live = 0
		for k, f := range c.scan.Table.Fragments {
			if !f.Excludes(c.scan.Filter) {
				c.live |= 1 << k
			}
		}
	}
}

// valueCheck is ValueFree's walk. cols are the scan columns the plan's
// conjuncts constrain to constants, param where a parameter does.
// reordered is set when the plan holds what an estimate may reorder or
// re-price after a join is priced.
type valueCheck struct {
	slots     []*expr.Const
	p         *Params
	found     uint64
	ok        bool
	reordered bool
	cols      [16]constrained
	ncol      int
}

// constrained is a scan column a conjunct constrains to constants. Of a
// parameter's: ranged when the conjunct is a range, prunes when a
// partition predicate of the table reads the column.
type constrained struct {
	scan                  *GlobalScan
	col                   int
	param, ranged, prunes bool
}

func (v *valueCheck) node(n Node) {
	EachInput(n, func(in *Node) { v.node(*in) })
	switch t := n.(type) {
	case *Filter:
		v.conjuncts(t.Pred, t.Input)
	case *Join:
		v.reordered = v.reordered || chainLen(t) >= 3 || aggregates(t.L) || aggregates(t.R)
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

// aggregates reports whether n holds an aggregate, which Optimize may
// split into partials in the scans after the joins are priced: a final
// Aggregate over a union of them is estimated otherwise.
func aggregates(n Node) bool {
	if _, ok := n.(*Aggregate); ok {
		return true
	}
	found := false
	EachInput(n, func(in *Node) { found = found || aggregates(*in) })
	return found
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
	lo, hi, ranged, param := v.params(e)
	if !param {
		v.nowhere(e)
		if isConstraint {
			if scan, g := origin(in, col.Index); scan != nil {
				v.record(constrained{scan: scan, col: g})
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		if v.found&(1<<i) != 0 {
			v.ok = false // one parameter read twice
		}
		v.found |= 1 << i
	}
	scan, g := origin(in, col.Index)
	if scan == nil {
		v.ok = false
		return
	}
	kind := v.slots[lo].Val.Kind()
	if scan.Table.Schema.Columns[g].Type != kind {
		v.ok = false
	}
	prunes := false
	for _, f := range scan.Table.Fragments {
		if !f.Columns[g].Identity() {
			v.ok = false
		}
		prunes = prunes || f.Decides(g)
	}
	v.record(constrained{scan: scan, col: g, param: true, ranged: ranged, prunes: prunes})
	if _, in := e.(*expr.InList); in && hi-lo > 1 {
		if v.p.nList == maxLists {
			v.ok = false
			return
		}
		v.p.lists[v.p.nList] = [2]uint8{uint8(lo), uint8(hi)}
		v.p.nList++
	}
}

// params recognises col op ? (either way round, op a comparison but <>)
// and col IN (?, …) of parameters alone, and returns the parameters it
// reads, lo..hi-1, in the order they were read, and whether it is a
// range; each reads its parameter's kind.
func (v *valueCheck) params(e expr.Expr) (lo, hi int, ranged, ok bool) {
	switch n := e.(type) {
	case *expr.Binary:
		col, op, _, isCmp := expr.ColumnComparison(n)
		if !isCmp || op == expr.OpNe || col.Index < 0 {
			return 0, 0, false, false
		}
		c, _ := n.R.(*expr.Const)
		if c == nil {
			c, _ = n.L.(*expr.Const)
		}
		i := v.slot(c)
		return i, i + 1, op != expr.OpEq, i >= 0
	case *expr.InList:
		if _, isCol := n.E.(*expr.ColRef); !isCol || n.Negate || len(n.List) == 0 {
			return 0, 0, false, false
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
				return 0, 0, false, false // a literal among parameters, or out of order
			}
			hi = i + 1
		}
		return lo, hi, false, lo >= 0
	default:
		return 0, 0, false, false
	}
}

// record keeps c, a conjunct's constraint of a scan column.
func (v *valueCheck) record(c constrained) {
	if v.ncol == len(v.cols) {
		v.ok = false
		return
	}
	v.cols[v.ncol] = c
	v.ncol++
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
// is n's own. n is not written. vals must fit (Params.Fits). The choices
// planning made from the values are made again from vals: it returns nil,
// having copied no node, when a scan's filter would leave it other
// fragments than the kept plan reads, and a copied join whose strategy
// the estimates chose takes the one they choose for vals.
func Rebind(n Node, p *Params, vals []types.Value) Node {
	if len(vals) == 0 {
		return n
	}
	bound := expr.Binding{Slots: p.Slots, Vals: vals}
	for _, c := range p.prunes[:p.nPrune] {
		for k, f := range c.scan.Table.Fragments {
			if f.ExcludesBound(c.scan.Filter, bound) == (c.live&(1<<k) != 0) {
				return nil
			}
		}
	}
	r := rebinder{slots: p.Slots, consts: make([]expr.Const, len(vals)), priced: p.priced}
	for i, v := range vals {
		r.consts[i].Val = v
	}
	return r.node(n)
}

// rebinder is Rebind's walk. The scans of a union that follow one another
// (FragScan.follow) share a filter: seen keeps each expression's copy and
// each scan's, so the copies share it too and a copied scan follows its
// copied predecessor. priced is Params.priced.
type rebinder struct {
	slots  []*expr.Const
	consts []expr.Const
	exprs  [8][2]expr.Expr
	nexpr  int
	scans  [8][2]*FragScan
	nscan  int
	priced bool
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
	if j, ok := out.(*Join); ok && out != n && j.costed && r.priced {
		j.Strategy = costedStrategy(j)
	}
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

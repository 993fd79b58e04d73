package plan

import (
	"gis/internal/expr"
	"gis/internal/types"
)

// A plan the engine keeps for a statement's text is run again with other
// parameter values (DESIGN.md "The statement cache"). ValueFree decides
// on the logical plan that nothing planning made could differ for other
// values but two choices: which fragments of a scan survive, which a
// kept plan stands for alone (Live, LiveFor), and a two-way join's
// strategy, which Bind makes again when it writes a call's values into
// the plan.

// maxParams is how many parameters a plan that is bound again may have.
const maxParams = 64

// Params is where a statement's parameters stand in its plan: Slots[i]
// is the constant the parser read parameter i into, which the optimized
// plan holds wherever the conjunct that reads it went — a scan's pushed
// filter, its residual, a Filter or a join's condition, several of them
// when the conjunct was pushed into each fragment.
type Params struct {
	Slots []*expr.Const
	// Live is the fragments the kept plan reads of each scan a parameter
	// may prune (Kept).
	Live Live
	// kinds are the slots' kinds as parsed, which a call's values must
	// have: Fits reads them, not the slots, which Bind writes.
	kinds [maxParams]types.Kind
	// lists are the IN lists of parameters, parameters lo..hi-1 each:
	// the estimate counts a list's distinct values, so the plan stands
	// only for values that differ.
	lists [maxLists][2]uint8
	nList int
	// prunes are the scans a parameter constrains a column of that a
	// partition predicate reads, whose surviving fragments LiveFor
	// re-derives.
	prunes [maxPrunes]*GlobalScan
	nPrune int
	// priced is set when an estimate reads a parameter's value: a range,
	// or a column constrained again. joins are then the kept plan's
	// joins whose strategy the estimates chose, inputs first, which Bind
	// re-derives.
	priced bool
	joins  []*Join
}

// Live has bit k of its i-th word set when a plan reads fragment k of
// the i-th scan whose fragments a parameter may prune (Params.prunes).
type Live [maxPrunes]uint64

// maxLists is how many IN lists of parameters a plan bound again may
// hold, and maxPrunes how many scans whose fragments it re-derives.
const (
	maxLists  = 4
	maxPrunes = 4
)

// Fits reports whether vals may be bound into the plan made for the slots'
// values: as many values, each of its slot's kind, and those of an IN
// list all different. It reads no slot.
func (p *Params) Fits(vals []types.Value) bool {
	if len(vals) != len(p.Slots) {
		return false
	}
	for i, v := range vals {
		if v.Kind() != p.kinds[i] {
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

// LiveFor is Live of the plan made for vals, which must fit: the
// fragments of each scan whose filter, with vals bound, does not exclude
// them. It reads no slot's value, so a plan another caller binds may be
// asked, and allocates nothing.
func (p *Params) LiveFor(vals []types.Value) Live {
	return p.live(expr.Binding{Slots: p.Slots, Vals: vals})
}

// live is LiveFor under b.
func (p *Params) live(b expr.Binding) Live {
	var l Live
	for i, scan := range p.prunes[:p.nPrune] {
		for k, f := range scan.Table.Fragments {
			if !f.ExcludesBound(scan.Filter, b) {
				l[i] |= 1 << k
			}
		}
	}
	return l
}

// Bind writes vals into p's slots, and so into the plan kept for p
// (Kept), and makes again the choice planning made from the values that
// a plan's fragments do not stand for: each join whose strategy the
// estimates chose takes the one they choose for vals. The caller holds
// the plan alone; vals fit (Fits) and leave the plan its fragments
// (LiveFor is p.Live). It allocates nothing.
func (p *Params) Bind(vals []types.Value) {
	for i, v := range vals {
		p.Slots[i].Val = v
	}
	for _, j := range p.joins {
		j.Strategy = costedStrategy(j)
	}
}

// ValueFree reports whether the plan Optimize makes of n, a logical plan
// as Builder built it, whose parameters were read into p.Slots
// (sql.ParseSlots), may be kept for other values: all it reads of a
// parameter but its kind is re-derived for a call's values (LiveFor,
// Bind). It fills the rest of p when so. That holds when:
//   - each parameter is the constant of a conjunct col op ? (op one of =,
//     <, <=, >, >=, either way round), or one of an IN list of
//     parameters alone, col IN (?, …), in a WHERE or ON condition, and
//     stands nowhere else;
//   - col is a column of a global table, read through the plan's scans
//     and bare-column projections, of the parameter's kind, which every
//     fragment of the table copies as it is: the translation to a
//     fragment carries the slot itself, and Fragment.Split reads the
//     value only where Excludes does, which LiveFor re-derives when a
//     partition predicate reads col;
//   - where an estimate reads a value (priced: a range, or a column
//     constrained again), only a two-way join's strategy is priced from
//     it, which Bind re-derives: no chain of three inner-joined
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
	for i, s := range p.Slots {
		p.kinds[i] = s.Val.Kind()
	}
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

// Unplanned fills p for a statement that is kept without a plan: a global
// write, whose parameters were read into p.Slots. Fits then reads their
// kinds. When scan is not nil, its filter (an UPDATE's or a DELETE's
// WHERE, bound over its table's global schema) is the one whose fragments
// LiveFor re-derives, and Live is those it leaves for the slots' values.
// It reports false when there are more parameters or fragments than p
// keeps track of.
func (p *Params) Unplanned(scan *GlobalScan) bool {
	if len(p.Slots) > maxParams || scan != nil && len(scan.Table.Fragments) > 64 {
		return false
	}
	for i, s := range p.Slots {
		p.kinds[i] = s.Val.Kind()
	}
	p.nList, p.nPrune, p.priced, p.joins = 0, 0, false, nil
	if scan != nil {
		p.prunes[0], p.nPrune = scan, 1
	}
	p.Live = p.live(expr.Binding{})
	return true
}

// addPrune records that a parameter may prune scan's fragments; false
// when there are too many such scans or fragments to keep track of.
func (p *Params) addPrune(scan *GlobalScan) bool {
	for _, s := range p.prunes[:p.nPrune] {
		if s == scan {
			return true
		}
	}
	if p.nPrune == maxPrunes || len(scan.Table.Fragments) > 64 {
		return false
	}
	p.prunes[p.nPrune] = scan
	p.nPrune++
	return true
}

// Kept records, once Optimize has made n, the plan that is kept, which
// fragments of each scan a parameter may prune it reads (Live): those
// the scan's filter, as pushed down, does not exclude; and, when an
// estimate reads a value, the joins whose strategy Bind re-derives.
func (p *Params) Kept(n Node) {
	p.Live = p.live(expr.Binding{})
	p.joins = nil
	if p.priced {
		p.costedJoins(n)
	}
}

// costedJoins appends n's joins whose strategy the estimates chose,
// inputs first, to p.joins.
func (p *Params) costedJoins(n Node) {
	EachInput(n, func(in *Node) { p.costedJoins(*in) })
	if j, ok := n.(*Join); ok && j.costed {
		p.joins = append(p.joins, j)
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

// settle stores every node's schema, bottom-up, so that a plan Optimize
// returns is only read from then on: Schema computes a Project's,
// Join's, Aggregate's or GlobalScan's when first asked, which a plan run
// by two statements at once must not be.
func settle(n Node) {
	EachInput(n, func(in *Node) { settle(*in) })
	n.Schema()
}

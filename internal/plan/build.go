package plan

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/sql"
	"gis/internal/types"
)

// Builder turns SQL ASTs into logical plans against a catalog.
type Builder struct {
	cat *catalog.Catalog
	// viewsInProgress detects recursive view definitions; made by the
	// first view a statement reads.
	viewsInProgress map[string]bool
}

// NewBuilder returns a Builder over cat.
func NewBuilder(cat *catalog.Catalog) *Builder {
	return &Builder{cat: cat}
}

// BuildSelect plans a full SELECT statement (including UNION chains).
// Subqueries in expressions must have been materialized away by the
// caller (the engine does this); encountering one here is an error.
func (b *Builder) BuildSelect(sel *sql.SelectStmt) (Node, error) {
	node, err := b.buildCore(sel)
	if err != nil {
		return nil, err
	}
	// UNION chain.
	if sel.Union != nil {
		inputs := []Node{node}
		all := true
		cur := sel
		for cur.Union != nil {
			next, err := b.buildCore(cur.Union)
			if err != nil {
				return nil, err
			}
			if !cur.UnionAll {
				all = false
			}
			inputs = append(inputs, next)
			cur = cur.Union
		}
		first := inputs[0].Schema()
		for i, in := range inputs[1:] {
			if in.Schema().Len() != first.Len() {
				return nil, fmt.Errorf("UNION arm %d has %d columns, want %d", i+2, in.Schema().Len(), first.Len())
			}
		}
		node = &Union{Inputs: inputs, All: all}
		if !all {
			node = distinct(node)
		}
	}
	// ORDER BY over the result schema.
	if len(sel.OrderBy) > 0 {
		node, err = b.buildSort(node, sel.OrderBy)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case sel.Limit == 0:
		// No row is asked for, so no source is: an empty relation of the
		// right shape, as a scan whose every fragment is pruned plans.
		node = &Values{Out: node.Schema()}
	case sel.Limit > 0 || sel.Offset > 0:
		n := sel.Limit
		if n < 0 {
			n = int64(1) << 62
		}
		node = &Limit{N: n, Offset: sel.Offset, Input: node}
	}
	return node, nil
}

// buildCore plans one SELECT without set operations or ORDER/LIMIT.
func (b *Builder) buildCore(sel *sql.SelectStmt) (Node, error) {
	var node Node
	var err error
	if sel.From != nil {
		node, err = b.buildFrom(sel.From)
		if err != nil {
			return nil, err
		}
	} else {
		node = &Values{Rows: [][]expr.Expr{{}}, Out: &types.Schema{}}
	}

	inSchema := node.Schema()

	// Expand stars and bind select items.
	items, err := expandStars(sel.Items, inSchema)
	if err != nil {
		return nil, err
	}
	boundItems := make([]expr.Expr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		// Named as written: Bind binds the parser's tree in place, and a
		// bound reference prints unquoted.
		names[i] = it.Alias
		if names[i] == "" {
			if c, ok := it.Expr.(*expr.ColRef); ok {
				names[i] = c.Name
			} else {
				names[i] = it.Expr.String()
			}
		}
		bound, err := expr.Bind(it.Expr, inSchema)
		if err != nil {
			return nil, err
		}
		boundItems[i] = bound
	}

	// WHERE.
	if sel.Where != nil {
		pred, err := expr.Bind(sel.Where, inSchema)
		if err != nil {
			return nil, err
		}
		if expr.HasAggregate(pred) {
			return nil, fmt.Errorf("aggregates are not allowed in WHERE")
		}
		if expr.HasSubquery(pred) {
			return nil, fmt.Errorf("internal: subquery reached the planner")
		}
		node = &Filter{Pred: pred, Input: node}
	}

	// Aggregation.
	var boundHaving expr.Expr
	if sel.Having != nil {
		boundHaving, err = expr.Bind(sel.Having, inSchema)
		if err != nil {
			return nil, err
		}
	}
	needAgg := len(sel.GroupBy) > 0 || boundHaving != nil
	for _, e := range boundItems {
		if expr.HasAggregate(e) {
			needAgg = true
		}
	}
	if needAgg {
		node, boundItems, boundHaving, err = b.buildAggregate(node, sel.GroupBy, boundItems, boundHaving, inSchema)
		if err != nil {
			return nil, err
		}
		if boundHaving != nil {
			node = &Filter{Pred: boundHaving, Input: node}
		}
	} else if boundHaving != nil {
		return nil, fmt.Errorf("HAVING without aggregation")
	}

	node = &Project{Exprs: boundItems, Names: names, Input: node}
	if sel.Distinct {
		node = distinct(node)
	}
	return node, nil
}

// distinct removes n's duplicate rows: it groups by every column and
// computes no aggregate, so each distinct row is one group, NULL equal to
// NULL, in the order its first copy arrived.
func distinct(n Node) Node {
	cols := n.Schema().Columns
	keys := make([]expr.Expr, len(cols))
	for i, c := range cols {
		keys[i] = expr.NewBoundColRef(i, c.Type, c.Name)
	}
	return &Aggregate{GroupBy: keys, Input: n}
}

// buildFrom plans a FROM tree.
func (b *Builder) buildFrom(t sql.TableExpr) (Node, error) {
	switch n := t.(type) {
	case *sql.TableRef:
		// A view expands as a derived table under the reference name.
		if viewSQL, isView := b.cat.View(n.Name); isView {
			return b.buildView(n.Name, viewSQL, n.Binding())
		}
		tab, err := b.cat.Table(n.Name)
		if err != nil {
			return nil, err
		}
		return NewGlobalScan(tab, n.Binding()), nil

	case *sql.SubqueryTable:
		inner, err := b.BuildSelect(n.Select)
		if err != nil {
			return nil, err
		}
		return qualify(inner, n.Alias), nil

	case *sql.JoinExpr:
		l, err := b.buildFrom(n.L)
		if err != nil {
			return nil, err
		}
		r, err := b.buildFrom(n.R)
		if err != nil {
			return nil, err
		}
		// The ON condition is written over (left ++ right) regardless of
		// the join direction.
		var cond expr.Expr
		if n.On != nil {
			cond, err = expr.Bind(n.On, l.Schema().Concat(r.Schema()))
			if err != nil {
				return nil, err
			}
		}
		if n.Kind == sql.JoinRight {
			return buildRightJoin(l, r, cond), nil
		}
		// A comma or CROSS join is an inner join with no condition.
		kind := JoinInner
		if n.Kind == sql.JoinLeft {
			kind = JoinLeft
		}
		return &Join{Kind: kind, L: l, R: r, Cond: cond}, nil

	default:
		return nil, fmt.Errorf("unsupported FROM clause %T", t)
	}
}

// buildRightJoin expresses A RIGHT JOIN B as B LEFT JOIN A with the
// condition remapped to the swapped layout and a projection restoring
// the (A ++ B) output column order.
func buildRightJoin(l, r Node, cond expr.Expr) Node {
	lw, rw := l.Schema().Len(), r.Schema().Len()
	remap := make([]int, lw+rw)
	for i := 0; i < lw; i++ {
		remap[i] = rw + i
	}
	for i := 0; i < rw; i++ {
		remap[lw+i] = i
	}
	return columnsAt(&Join{Kind: JoinLeft, L: r, R: l, Cond: expr.Remap(cond, remap)}, remap)
}

// columnsAt projects n so that its column m[i] is at position i: every
// pass-through Project, its references carved from one array.
func columnsAt(n Node, m []int) *Project {
	out := n.Schema()
	exprs := make([]expr.Expr, len(m))
	names := make([]string, len(m))
	refs := make([]expr.ColRef, len(m))
	for i, c := range m {
		refs[i] = outputRef(out, c)
		exprs[i], names[i] = &refs[i], out.Columns[c].Name
	}
	return &Project{Exprs: exprs, Names: names, Input: n}
}

// buildView parses and plans a view body, guarding against recursion.
// Views must be self-contained (no expression subqueries — those need
// the engine's materialization pass, which runs before planning).
func (b *Builder) buildView(name, viewSQL, alias string) (Node, error) {
	if b.viewsInProgress[name] {
		return nil, fmt.Errorf("view %q is recursive", name)
	}
	if b.viewsInProgress == nil {
		b.viewsInProgress = make(map[string]bool)
	}
	b.viewsInProgress[name] = true
	defer delete(b.viewsInProgress, name)
	sel, err := sql.ParseSelect(viewSQL)
	if err != nil {
		return nil, fmt.Errorf("view %q: %w", name, err)
	}
	inner, err := b.BuildSelect(sel)
	if err != nil {
		return nil, fmt.Errorf("view %q: %w", name, err)
	}
	return qualify(inner, alias), nil
}

// qualify re-qualifies a node's output columns under an alias via a
// pass-through projection (derived tables and view references).
func qualify(inner Node, alias string) Node {
	p := columnsAt(inner, identityMapping(inner.Schema().Len()))
	for _, e := range p.Exprs {
		e.(*expr.ColRef).Table = alias
	}
	return p
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sql.SelectItem, schema *types.Schema) ([]sql.SelectItem, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("empty select list")
	}
	if !slices.ContainsFunc(items, func(it sql.SelectItem) bool { return it.Star }) {
		return items, nil
	}
	out := make([]sql.SelectItem, 0, len(items)-1+schema.Len())
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema.Columns {
			if it.StarTable != "" && !strings.EqualFold(c.Table, it.StarTable) {
				continue
			}
			out = append(out, sql.SelectItem{Expr: expr.NewColRef(c.Table, c.Name)})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("star expansion found no columns for %q", it.StarTable)
		}
	}
	return out, nil
}

// buildAggregate plans grouping. It extracts aggregate calls from the
// select items and HAVING, builds the Aggregate node, and rewrites the
// expressions to reference the aggregate's output columns.
func (b *Builder) buildAggregate(input Node, groupBy []expr.Expr, items []expr.Expr,
	having expr.Expr, inSchema *types.Schema) (Node, []expr.Expr, expr.Expr, error) {

	agg := &Aggregate{Input: input}

	// Bind group-by expressions.
	for _, g := range groupBy {
		bound, err := expr.Bind(g, inSchema)
		if err != nil {
			return nil, nil, nil, err
		}
		if expr.HasAggregate(bound) {
			return nil, nil, nil, fmt.Errorf("aggregates are not allowed in GROUP BY")
		}
		agg.GroupBy = append(agg.GroupBy, bound)
	}

	// Collect distinct aggregate calls from items and having.
	nested := false
	collect := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			ac, ok := n.(*expr.AggCall)
			if !ok {
				return true
			}
			nested = nested || expr.HasAggregate(ac.Arg)
			key := ac.String()
			if !slices.ContainsFunc(agg.Aggs, func(a AggItem) bool { return a.Name == key }) {
				agg.Aggs = append(agg.Aggs, AggItem{Kind: ac.Kind, Arg: ac.Arg, Distinct: ac.Distinct, Name: key})
			}
			return false
		})
	}
	for _, e := range items {
		collect(e)
	}
	if having != nil {
		collect(having)
	}
	if nested {
		return nil, nil, nil, fmt.Errorf("aggregate calls cannot be nested")
	}

	newItems := make([]expr.Expr, len(items))
	for i, e := range items {
		r, err := overAggregate(agg, e)
		if err != nil {
			return nil, nil, nil, err
		}
		newItems[i] = r
	}
	var newHaving expr.Expr
	if having != nil {
		var err error
		newHaving, err = overAggregate(agg, having)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return agg, newItems, newHaving, nil
}

// errUncomputed: an expression over an Aggregate's output holds an
// aggregate call the Aggregate does not compute.
var errUncomputed = errors.New("the select list does not compute this aggregate")

// overAggregate rewrites e, bound over agg's input, over agg's output:
// each aggregate call and each group expression becomes a reference to
// its column. A call is matched before its argument, which may be a
// group expression too. A column reference left over is not determined
// by the grouping, and is an error, as is a call agg does not compute
// (errUncomputed). Rewritten references carry a sentinel qualifier
// until the check is done, so that it cannot take them for references
// to agg's input.
func overAggregate(agg *Aggregate, e expr.Expr) (expr.Expr, error) {
	const aggMark = "\x00agg"
	out := agg.Schema()
	ref := func(i int) expr.Expr {
		r := expr.NewBoundColRef(i, out.Columns[i].Type, out.Columns[i].Name)
		r.Table = aggMark
		return r
	}
	uncomputed := false
	r := expr.Transform(e, func(n expr.Expr) expr.Expr {
		if ac, ok := n.(*expr.AggCall); ok {
			name := ac.String()
			if j := slices.IndexFunc(agg.Aggs, func(a AggItem) bool { return a.Name == name }); j >= 0 {
				return ref(len(agg.GroupBy) + j)
			}
			uncomputed = true
		}
		return n
	})
	if uncomputed {
		return nil, errUncomputed
	}
	// A group column matches a column reference by position, a group
	// expression any other node by its printed form.
	r = expr.Transform(r, func(n expr.Expr) expr.Expr {
		c, isRef := n.(*expr.ColRef)
		for i, g := range agg.GroupBy {
			gc, isCol := g.(*expr.ColRef)
			if isRef && isCol && c.Table != aggMark && gc.Index == c.Index || !isRef && !isCol && n.String() == g.String() {
				return ref(i)
			}
		}
		return n
	})
	var stray expr.Expr
	expr.Walk(r, func(n expr.Expr) bool {
		if c, ok := n.(*expr.ColRef); ok && c.Table != aggMark {
			stray = c
			return false
		}
		return true
	})
	if stray != nil {
		return nil, fmt.Errorf("column %s must appear in GROUP BY or inside an aggregate", stray)
	}
	return expr.Transform(r, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.ColRef); ok && c.Table == aggMark {
			cp := *c
			cp.Table = ""
			return &cp
		}
		return n
	}), nil
}

// buildSort plans ORDER BY over node's output, resolving each key once,
// by the first rule that applies: a Positional key is an output column's
// position, from 1; a key that binds over the output columns and
// aggregates nothing, or that prints as an output column is named (an
// unaliased select item is named as written), is an expression over
// them; any other is a hidden column over the input of the select list's
// projection — a UNION or DISTINCT has none — dropped after the Sort,
// its aggregates read from the Aggregate's columns that compute them.
func (b *Builder) buildSort(node Node, order []sql.OrderItem) (Node, error) {
	out := node.Schema()
	keys := make([]SortKey, len(order))
	var hidden *Project // node with the hidden columns, once a key needs one
	for i, o := range order {
		keys[i].Desc = o.Desc
		j := -1
		if c, ok := o.Expr.(*expr.Const); ok && o.Positional {
			if j = int(c.Val.Int()) - 1; j < 0 || j >= out.Len() {
				return nil, fmt.Errorf("ORDER BY position %s is not in the select list of %d columns", c, out.Len())
			}
		} else if bound, err := expr.Bind(o.Expr, out); err == nil && !expr.HasAggregate(bound) {
			keys[i].E = bound
			continue
		} else if _, isRef := o.Expr.(*expr.ColRef); !isRef {
			printed := o.Expr.String()
			j = slices.IndexFunc(out.Columns, func(c types.Column) bool { return c.Name == printed })
		}
		if j >= 0 {
			ref := outputRef(out, j)
			keys[i].E = &ref
			continue
		}
		proj, isProj := node.(*Project)
		var agg *Aggregate // the select list's, under its HAVING filter
		if isProj {
			in := proj.Input
			if f, ok := in.(*Filter); ok {
				in = f.Input
			}
			agg, _ = in.(*Aggregate)
		}
		hasAgg := expr.HasAggregate(o.Expr)
		if hasAgg && agg == nil {
			return nil, fmt.Errorf("ORDER BY %s: %w", o.Expr, errUncomputed)
		} else if !isProj {
			return nil, fmt.Errorf("ORDER BY %s does not name an output column", o.Expr)
		}
		var bound expr.Expr
		var err error
		if hasAgg {
			if bound, err = expr.Bind(o.Expr, agg.Input.Schema()); err == nil {
				bound, err = overAggregate(agg, bound)
			}
		} else {
			bound, err = expr.Bind(o.Expr, proj.Input.Schema())
		}
		if err != nil {
			return nil, fmt.Errorf("cannot resolve ORDER BY expression %s: %w", o.Expr, err)
		}
		if hidden == nil {
			hidden = &Project{Exprs: slices.Clone(proj.Exprs), Names: slices.Clone(proj.Names), Input: proj.Input}
		}
		hidden.Exprs = append(hidden.Exprs, bound)
		hidden.Names = append(hidden.Names, fmt.Sprintf("__sort%d", len(hidden.Names)))
		keys[i].E = expr.NewBoundColRef(len(hidden.Exprs)-1, bound.ResultType(), "")
	}
	if hidden == nil {
		return &Sort{Keys: keys, Input: node}, nil
	}
	// Final projection drops the hidden sort columns.
	return columnsAt(&Sort{Keys: keys, Input: hidden}, identityMapping(out.Len())), nil
}

// outputRef references column i of the output schema out, under its
// name and table.
func outputRef(out *types.Schema, i int) expr.ColRef {
	c := out.Columns[i]
	return expr.ColRef{Table: c.Table, Name: c.Name, Index: i, Type: c.Type}
}

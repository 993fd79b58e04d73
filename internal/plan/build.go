package plan

import (
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
	// viewsInProgress detects recursive view definitions.
	viewsInProgress map[string]bool
}

// NewBuilder returns a Builder over cat.
func NewBuilder(cat *catalog.Catalog) *Builder {
	return &Builder{cat: cat, viewsInProgress: make(map[string]bool)}
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
	if sel.Limit >= 0 || sel.Offset > 0 {
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
	j := &Join{Kind: JoinLeft, L: r, R: l, Cond: expr.Remap(cond, remap)}
	out := j.Schema() // (B ++ A)
	exprs := make([]expr.Expr, lw+rw)
	names := make([]string, lw+rw)
	for orig := 0; orig < lw+rw; orig++ {
		pos := remap[orig]
		c := out.Columns[pos]
		ref := expr.NewBoundColRef(pos, c.Type, c.Name)
		ref.Table = c.Table
		exprs[orig] = ref
		names[orig] = c.Name
	}
	return &Project{Exprs: exprs, Names: names, Input: j}
}

// buildView parses and plans a view body, guarding against recursion.
// Views must be self-contained (no expression subqueries — those need
// the engine's materialization pass, which runs before planning).
func (b *Builder) buildView(name, viewSQL, alias string) (Node, error) {
	if b.viewsInProgress[name] {
		return nil, fmt.Errorf("view %q is recursive", name)
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
	schema := inner.Schema()
	exprs := make([]expr.Expr, schema.Len())
	names := make([]string, schema.Len())
	for i, c := range schema.Columns {
		ref := expr.NewBoundColRef(i, c.Type, c.Name)
		ref.Table = alias
		exprs[i] = ref
		names[i] = c.Name
	}
	return &Project{Exprs: exprs, Names: names, Input: inner}
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
	groupKeys := make([]string, 0, len(groupBy))
	for _, g := range groupBy {
		bound, err := expr.Bind(g, inSchema)
		if err != nil {
			return nil, nil, nil, err
		}
		if expr.HasAggregate(bound) {
			return nil, nil, nil, fmt.Errorf("aggregates are not allowed in GROUP BY")
		}
		agg.GroupBy = append(agg.GroupBy, bound)
		groupKeys = append(groupKeys, bound.String())
	}

	// Collect distinct aggregate calls from items and having.
	aggIndex := map[string]int{} // AggCall.String() → output position
	collect := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			if ac, ok := n.(*expr.AggCall); ok {
				key := ac.String()
				if _, seen := aggIndex[key]; !seen {
					aggIndex[key] = len(agg.GroupBy) + len(agg.Aggs)
					agg.Aggs = append(agg.Aggs, AggItem{
						Kind: ac.Kind, Arg: ac.Arg, Distinct: ac.Distinct, Name: key,
					})
				}
				return false
			}
			return true
		})
	}
	for _, e := range items {
		collect(e)
	}
	if having != nil {
		collect(having)
	}

	outSchema := agg.Schema()

	// rewrite replaces group expressions and aggregate calls with
	// references into the aggregate output; any column reference left
	// over is not functionally determined by the grouping → error.
	// Rewritten references are tagged with a sentinel qualifier so the
	// stray check cannot confuse them with surviving input references;
	// the tag is stripped before returning.
	const aggMark = "\x00agg"
	groupMatches := func(n expr.Expr, i int) bool {
		if c, ok := n.(*expr.ColRef); ok {
			if g, ok := agg.GroupBy[i].(*expr.ColRef); ok {
				return c.Index == g.Index
			}
			return false
		}
		return n.String() == groupKeys[i]
	}
	rewrite := func(e expr.Expr) (expr.Expr, error) {
		r := expr.Transform(e, func(n expr.Expr) expr.Expr {
			if ac, ok := n.(*expr.AggCall); ok {
				pos := aggIndex[ac.String()]
				ref := expr.NewBoundColRef(pos, outSchema.Columns[pos].Type, outSchema.Columns[pos].Name)
				ref.Table = aggMark
				return ref
			}
			for i := range groupKeys {
				if groupMatches(n, i) {
					ref := expr.NewBoundColRef(i, outSchema.Columns[i].Type, outSchema.Columns[i].Name)
					ref.Table = aggMark
					return ref
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
		r = expr.Transform(r, func(n expr.Expr) expr.Expr {
			if c, ok := n.(*expr.ColRef); ok && c.Table == aggMark {
				cp := *c
				cp.Table = ""
				return &cp
			}
			return n
		})
		return r, nil
	}

	newItems := make([]expr.Expr, len(items))
	for i, e := range items {
		r, err := rewrite(e)
		if err != nil {
			return nil, nil, nil, err
		}
		newItems[i] = r
	}
	var newHaving expr.Expr
	if having != nil {
		var err error
		newHaving, err = rewrite(having)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return agg, newItems, newHaving, nil
}

// buildSort plans ORDER BY over the result of node. Keys that don't bind
// against the output schema are bound against the input of the topmost
// projection, with hidden columns appended for the sort and dropped
// afterwards.
func (b *Builder) buildSort(node Node, order []sql.OrderItem) (Node, error) {
	outSchema := node.Schema()
	keys := make([]SortKey, 0, len(order))
	allBound := true
	for _, o := range order {
		bound, err := expr.Bind(o.Expr, outSchema)
		if err != nil {
			allBound = false
			break
		}
		keys = append(keys, SortKey{E: bound, Desc: o.Desc})
	}
	if allBound {
		return &Sort{Keys: keys, Input: node}, nil
	}
	// Hidden-column path: only available when the top node is a Project.
	proj, ok := node.(*Project)
	if !ok {
		return nil, fmt.Errorf("ORDER BY expression does not reference the select list")
	}
	inSchema := proj.Input.Schema()
	visible := len(proj.Exprs)
	extended := &Project{
		Exprs: append([]expr.Expr(nil), proj.Exprs...),
		Names: append([]string(nil), proj.Names...),
		Input: proj.Input,
	}
	keys = keys[:0]
	for _, o := range order {
		if bound, err := expr.Bind(o.Expr, outSchema); err == nil {
			keys = append(keys, SortKey{E: bound, Desc: o.Desc})
			continue
		}
		bound, err := expr.Bind(o.Expr, inSchema)
		if err != nil {
			return nil, fmt.Errorf("cannot resolve ORDER BY expression %s: %w", o.Expr, err)
		}
		pos := len(extended.Exprs)
		extended.Exprs = append(extended.Exprs, bound)
		extended.Names = append(extended.Names, fmt.Sprintf("__sort%d", pos))
		keys = append(keys, SortKey{
			E:    expr.NewBoundColRef(pos, bound.ResultType(), ""),
			Desc: o.Desc,
		})
	}
	sorted := &Sort{Keys: keys, Input: extended}
	// Final projection drops the hidden sort columns.
	finalExprs := make([]expr.Expr, visible)
	finalNames := make([]string, visible)
	for i := 0; i < visible; i++ {
		c := extended.Schema().Columns[i]
		ref := expr.NewBoundColRef(i, c.Type, c.Name)
		ref.Table = c.Table
		finalExprs[i] = ref
		finalNames[i] = c.Name
	}
	return &Project{Exprs: finalExprs, Names: finalNames, Input: sorted}, nil
}

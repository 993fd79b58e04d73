package source

import (
	"gis/internal/expr"
	"gis/internal/types"
)

// Residual is the work the mediator must perform itself because the
// source's capabilities could not cover the full desired query. The
// residual operations apply, in order, to the rows the pushed query
// returns: filter, then project, then aggregate, then sort, then limit.
type Residual struct {
	// Filter is a predicate over the pushed query's output schema; nil
	// when fully pushed.
	Filter expr.Expr
	// Project lists output columns of the pushed query to keep (in
	// order); nil when no residual projection is needed.
	Project []int
	// GroupBy/Aggs describe mediator-side aggregation over the pushed
	// output; empty when aggregation was pushed or absent.
	GroupBy []int
	Aggs    []AggSpec
	// OrderBy/Limit to apply at the mediator.
	OrderBy []OrderSpec
	Limit   int64 // -1: none
}

// HasAggregation reports whether the mediator groups/aggregates. As in
// Query, GROUP BY with no aggregate still groups.
func (r *Residual) HasAggregation() bool { return len(r.Aggs) > 0 || len(r.GroupBy) > 0 }

// Empty reports whether no compensation is needed.
func (r *Residual) Empty() bool {
	return r.Filter == nil && r.Project == nil && !r.HasAggregation() &&
		len(r.OrderBy) == 0 && r.Limit < 0
}

// Split decomposes a desired query against a table into the fragment the
// source can execute (per its capabilities) and the residual the mediator
// must evaluate on the returned rows. info describes the target table.
//
// Split guarantees: running the pushed query at the source and then
// applying the residual at the mediator is equivalent to running the
// desired query on the table.
func Split(desired *Query, caps Capabilities, info *TableInfo) (*Query, *Residual) {
	pushed := &Query{Table: desired.Table, Limit: -1}
	res := &Residual{Limit: -1}

	// --- filter ---
	var keep expr.Expr
	switch caps.Filter {
	case FilterFull:
		// Sources evaluate any predicate except subqueries (which the
		// planner removes before decomposition anyway — defensive).
		var pushable, resid []expr.Expr
		for _, c := range expr.Conjuncts(desired.Filter) {
			if expr.HasSubquery(c) {
				resid = append(resid, c)
			} else {
				pushable = append(pushable, c)
			}
		}
		pushed.Filter = expr.Conjoin(pushable)
		keep = expr.Conjoin(resid)
	case FilterKey:
		keySet := make(map[int]bool, len(info.KeyColumns))
		for _, k := range info.KeyColumns {
			keySet[k] = true
		}
		var pushable, resid []expr.Expr
		for _, c := range expr.Conjuncts(desired.Filter) {
			if keyPredicate(c, keySet) {
				pushable = append(pushable, c)
			} else {
				resid = append(resid, c)
			}
		}
		pushed.Filter = expr.Conjoin(pushable)
		keep = expr.Conjoin(resid)
	default: // FilterNone
		keep = desired.Filter
	}

	// --- aggregation ---
	aggPushed := false
	if desired.HasAggregation() {
		// Aggregation can only be pushed when the residual filter is
		// empty (aggregating pre-filter rows would be wrong) and the
		// source supports it.
		if caps.Aggregate && keep == nil {
			pushed.GroupBy = desired.GroupBy
			pushed.Aggs = desired.Aggs
			aggPushed = true
		} else {
			res.GroupBy = desired.GroupBy
			res.Aggs = desired.Aggs
		}
	}

	// --- projection ---
	switch {
	case aggPushed:
		// Output schema is group cols + aggs already; nothing further.
	case desired.HasAggregation():
		// Mediator aggregates: it needs every column referenced by the
		// residual filter, the group-by columns and the agg inputs. Ship
		// the full rows when projection is unsupported; otherwise ship
		// the needed column set.
		need := map[int]struct{}{}
		for c := range expr.ColumnSet(keep) {
			need[c] = struct{}{}
		}
		for _, g := range desired.GroupBy {
			need[g] = struct{}{}
		}
		for _, a := range desired.Aggs {
			if !a.Star {
				need[a.Col] = struct{}{}
			}
		}
		if caps.Project {
			cols := sortedKeys(need)
			pushed.Columns = cols
			remap := invert(cols)
			keep = expr.Remap(keep, remap)
			res.GroupBy = remapInts(desired.GroupBy, remap)
			res.Aggs = remapAggs(desired.Aggs, remap)
		}
	case desired.Columns == nil:
		// Full rows desired; nothing to project.
	case caps.Project && keep == nil:
		pushed.Columns = desired.Columns
	case caps.Project:
		// Push the union of desired columns and residual-filter columns,
		// then project down at the mediator.
		need := map[int]struct{}{}
		for _, c := range desired.Columns {
			need[c] = struct{}{}
		}
		for c := range expr.ColumnSet(keep) {
			need[c] = struct{}{}
		}
		cols := sortedKeys(need)
		pushed.Columns = cols
		remap := invert(cols)
		keep = expr.Remap(keep, remap)
		res.Project = remapInts(desired.Columns, remap)
	default:
		// No projection support: full rows come back; mediator projects.
		res.Project = desired.Columns
	}
	res.Filter = keep

	// --- sort & limit ---
	// Both can only be pushed when everything upstream of them was
	// pushed (otherwise order/limit would apply to the wrong rows).
	fullyPushedSoFar := res.Filter == nil && res.Project == nil && !res.HasAggregation()
	if len(desired.OrderBy) > 0 {
		if caps.Sort && fullyPushedSoFar {
			pushed.OrderBy = desired.OrderBy
		} else {
			res.OrderBy = desired.OrderBy
		}
	}
	if desired.Limit >= 0 {
		orderedAtSource := len(res.OrderBy) == 0
		if caps.Limit && fullyPushedSoFar && orderedAtSource {
			pushed.Limit = desired.Limit
		} else {
			res.Limit = desired.Limit
			// A limit without residual filter/agg/sort still lets us ship
			// a superset limit when the source supports it and no
			// mediator-side reordering happens before the cut.
			if caps.Limit && res.Filter == nil && !res.HasAggregation() && orderedAtSource {
				pushed.Limit = desired.Limit
				res.Limit = -1
			}
		}
	}
	return pushed, res
}

// keyPredicate reports whether c is a comparison between a key column
// and a constant (the only shape a FilterKey source accepts).
func keyPredicate(c expr.Expr, keys map[int]bool) bool {
	b, ok := c.(*expr.Binary)
	if !ok || !b.Op.Comparison() || b.Op == expr.OpNe {
		return false
	}
	col, cok := b.L.(*expr.ColRef)
	con := b.R
	if !cok {
		col, cok = b.R.(*expr.ColRef)
		con = b.L
	}
	if !cok || !keys[col.Index] {
		return false
	}
	_, isConst := con.(*expr.Const)
	return isConst
}

func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func invert(cols []int) map[int]int {
	m := make(map[int]int, len(cols))
	for i, c := range cols {
		m[c] = i
	}
	return m
}

func remapInts(in []int, m map[int]int) []int {
	if in == nil {
		return nil
	}
	out := make([]int, len(in))
	for i, c := range in {
		if n, ok := m[c]; ok {
			out[i] = n
		} else {
			out[i] = c
		}
	}
	return out
}

func remapAggs(in []AggSpec, m map[int]int) []AggSpec {
	out := make([]AggSpec, len(in))
	copy(out, in)
	for i := range out {
		if out[i].Star {
			continue
		}
		if n, ok := m[out[i].Col]; ok {
			out[i].Col = n
		}
	}
	return out
}

// ApplyResidual is a reference implementation of residual evaluation used
// by wrappers' tests and by weak in-process adapters; the production
// executor implements the same semantics with streaming operators.
func ApplyResidual(rows []types.Row, res *Residual) ([]types.Row, error) {
	out := rows
	if res.Filter != nil {
		kept := out[:0:0]
		for _, r := range out {
			ok, err := expr.EvalBool(res.Filter, r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	if res.Project != nil {
		proj := make([]types.Row, len(out))
		for i, r := range out {
			nr := make(types.Row, len(res.Project))
			for j, c := range res.Project {
				nr[j] = r[c]
			}
			proj[i] = nr
		}
		out = proj
	}
	if res.HasAggregation() {
		var err error
		out, err = aggregateRows(out, res.GroupBy, res.Aggs)
		if err != nil {
			return nil, err
		}
	}
	if len(res.OrderBy) > 0 {
		SortRows(out, res.OrderBy)
	}
	if res.Limit >= 0 && int64(len(out)) > res.Limit {
		out = out[:res.Limit]
	}
	return out, nil
}

// SortRows sorts rows in place by the given keys (stable insertion via
// sort.SliceStable-equivalent merge is unnecessary; ordering ties are
// unspecified by SQL).
func SortRows(rows []types.Row, keys []OrderSpec) {
	less := func(a, b types.Row) bool {
		for _, k := range keys {
			c := a[k.Col].Compare(b[k.Col])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
	// Simple bottom-up merge sort to keep this helper dependency-free
	// and stable.
	n := len(rows)
	buf := make([]types.Row, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(rows[j], rows[i]) {
					buf[k] = rows[j]
					j++
				} else {
					buf[k] = rows[i]
					i++
				}
				k++
			}
			copy(buf[k:hi], rows[i:mid])
			copy(buf[k+mid-i:hi], rows[j:hi])
			copy(rows[lo:hi], buf[lo:hi])
		}
	}
}

// aggregateRows evaluates grouping+aggregates over materialized rows.
func aggregateRows(rows []types.Row, groupBy []int, aggs []AggSpec) ([]types.Row, error) {
	type group struct {
		key  types.Row
		accs []expr.Accumulator
	}
	groups := make(map[uint64][]*group)
	var order []*group
	for _, r := range rows {
		key := make(types.Row, len(groupBy))
		for i, g := range groupBy {
			key[i] = r[g]
		}
		h := key.Hash()
		var grp *group
		for _, g := range groups[h] {
			if g.key.Equal(key) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &group{key: key, accs: make([]expr.Accumulator, len(aggs))}
			for i, a := range aggs {
				grp.accs[i] = expr.NewAccumulator(a.Kind, a.Star, a.Distinct)
			}
			groups[h] = append(groups[h], grp)
			order = append(order, grp)
		}
		for i, a := range aggs {
			v := types.NewInt(1)
			if !a.Star {
				v = r[a.Col]
			}
			if err := grp.accs[i].Add(v); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregation over zero rows yields one row of empty-input
	// aggregate values.
	if len(order) == 0 && len(groupBy) == 0 {
		out := make(types.Row, len(aggs))
		for i, a := range aggs {
			out[i] = expr.NewAccumulator(a.Kind, a.Star, a.Distinct).Result()
		}
		return []types.Row{out}, nil
	}
	result := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(groupBy)+len(aggs))
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		result = append(result, row)
	}
	return result, nil
}

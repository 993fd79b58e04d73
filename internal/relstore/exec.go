package relstore

import (
	"context"
	"fmt"
	"io"
	"slices"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// Execute implements source.Source. The store evaluates the full query
// IR locally: index-accelerated filter, projection, grouping/aggregation,
// sort, and limit. The read lock is held to open the query, not to read
// its rows, and what is done under it is in proportion to what is read:
//
//   - an aggregating query folds each passing row into its group as it
//     is found, and an ordered one is drained and sorted, both here;
//   - an index probe copies the headers of its bucket's rows;
//   - any other query is a scan of the whole table, and borrows it
//     (table.view): nothing is copied, and the filter, the projection
//     and the limit happen in Next, after the lock is gone. Writers pay
//     for that, once a chunk (table.own); a probe takes no view so that
//     a point read never makes the next write copy anything.
//
// Either way the rows are those committed when Execute returned.
func (s *Store) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.lookup(q.Table)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Check(s.Capabilities(), &source.TableInfo{Schema: t.schema}); err != nil {
		return nil, fmt.Errorf("relstore %s: %w", s.name, err)
	}
	candidates, indexed := t.candidateRows(q.Filter)
	if q.HasAggregation() {
		rows, err := t.fold(q, candidates, indexed)
		if err != nil {
			return nil, fmt.Errorf("relstore %s: %w", s.name, err)
		}
		return sortLimit(rows, q), nil
	}
	it := &scanIter{s: s, q: q, limit: q.Limit}
	switch {
	case indexed:
		it.cur = make([]types.Row, 0, len(candidates))
		for _, pos := range candidates {
			if r := t.at(pos); r != nil {
				it.cur = append(it.cur, r)
			}
		}
	case len(q.OrderBy) > 0:
		// Drained below, under the lock: there is nothing to borrow.
		it.dir, it.n = t.dir, t.n
	default:
		it.dir, it.n = t.view()
	}
	if len(q.OrderBy) == 0 {
		return it, nil
	}
	// ORDER BY addresses the projected positions of every passing row:
	// the limit waits for the sort.
	it.limit = -1
	rows, err := source.Drain(it)
	if err != nil {
		return nil, err
	}
	return sortLimit(rows, q), nil
}

// fold groups and aggregates the rows of t that pass q's filter — of the
// candidates, when an index gave them. Caller holds mu.
func (t *table) fold(q *source.Query, candidates []int, indexed bool) ([]types.Row, error) {
	aggs := make([]expr.AccSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		aggs[i] = expr.AccSpec{Kind: a.Kind, Star: a.Star, Distinct: a.Distinct}
	}
	groups := expr.NewGroupTable(len(q.GroupBy), aggs)
	key := make(types.Row, len(q.GroupBy)) // scratch: the group key of the row in hand
	n := t.n
	if indexed {
		n = len(candidates)
	}
	for i := 0; i < n; i++ {
		pos := i
		if indexed {
			pos = candidates[i]
		}
		r := t.at(pos)
		if r == nil {
			continue
		}
		if q.Filter != nil {
			ok, err := expr.EvalBool(q.Filter, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for j, g := range q.GroupBy {
			key[j] = r[g]
		}
		for j, acc := range groups.Group(key) {
			v := types.NewInt(1)
			if a := q.Aggs[j]; !a.Star {
				v = r[a.Col]
			}
			if err := acc.Add(v); err != nil {
				return nil, err
			}
		}
	}
	return groups.Rows(), nil
}

// sortLimit orders rows, which are this query's own, by q's ORDER BY,
// cuts them to its LIMIT and streams them.
func sortLimit(rows []types.Row, q *source.Query) source.RowIter {
	if len(q.OrderBy) > 0 {
		source.SortRows(rows, q.OrderBy)
	}
	if q.Limit >= 0 && int64(len(rows)) > q.Limit {
		rows = rows[:q.Limit]
	}
	return source.SliceIter(rows)
}

// scanIter streams the rows of a table — the chunks a view lent, or the
// rows an index probe copied — that pass the filter, projected, up to
// the limit. An unprojected row is the committed row itself, which is
// never written again. A projected one is built here: kept (the
// default), in a slab's chunks; lent, in one row every Next rewrites.
type scanIter struct {
	s     *Store
	q     *source.Query // its Filter and Columns, which Execute checked
	cur   []types.Row   // what is left of the chunk being read
	dir   []*chunk      // the chunks after it,
	n     int           // and how many rows of them are the view's
	limit int64         // rows still wanted; negative: all
	slab  types.RowSlab
}

// Lend implements source.Lender.
func (it *scanIter) Lend() { it.slab.Lend() }

// Next implements source.RowIter.
func (it *scanIter) Next() (types.Row, error) {
	for it.limit != 0 {
		if len(it.cur) == 0 {
			if it.n == 0 {
				break
			}
			k := min(it.n, chunkRows)
			it.cur, it.dir, it.n = it.dir[0][:k], it.dir[1:], it.n-k
		}
		r := it.cur[0]
		it.cur = it.cur[1:]
		if r == nil {
			continue
		}
		if it.q.Filter != nil {
			ok, err := expr.EvalBool(it.q.Filter, r)
			if err != nil {
				return nil, fmt.Errorf("relstore %s: %w", it.s.name, err)
			}
			if !ok {
				continue
			}
		}
		if it.limit > 0 {
			it.limit--
		}
		if it.q.Columns == nil {
			return r, nil
		}
		out := it.slab.Next(len(it.q.Columns))
		for j, c := range it.q.Columns {
			out[j] = r[c]
		}
		return out, nil
	}
	return nil, io.EOF
}

// Close implements source.RowIter.
func (it *scanIter) Close() error {
	it.limit = 0
	return nil
}

// candidateRows returns the positions of the rows a hash index says
// can pass the filter, and false when no index applies and the caller
// must scan every row. An index applies where the filter's range on its
// column (expr.ColumnRange) names finitely many values — an equality, an
// IN list as the semijoin strategy ships, or NULL, which names none —
// and of those that do, the one naming the fewest is probed, the lowest
// column on a tie. The caller filters what the probe returns.
func (t *table) candidateRows(filter expr.Expr) ([]int, bool) {
	col, n := -1, 0
	var best expr.Range
	for c := range t.hashIdx {
		r, _ := expr.ColumnRange(filter, c)
		k := len(r.Keys)
		switch _, point := r.Point(); {
		case point:
			k = 1
		case r.Keys == nil:
			continue // an interval, which a hash index cannot walk
		}
		if col < 0 || k < n || (k == n && c < col) {
			col, n, best = c, k, r
		}
	}
	if col < 0 {
		return nil, false
	}
	idx := t.hashIdx[col]
	if v, ok := best.Point(); ok {
		return idx[v.Hash(0)], true
	}
	// Two keys may share a bucket: positions are sorted and each kept
	// once, which also yields the rows in the table's order.
	out := make([]int, 0, len(best.Keys))
	for _, k := range best.Keys {
		out = append(out, idx[k.Hash(0)]...)
	}
	slices.Sort(out)
	return slices.Compact(out), true
}

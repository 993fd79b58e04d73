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
//   - an index probe copies the headers of the rows it names;
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
	if q.HasAggregation() {
		rows, err := t.fold(q)
		if err != nil {
			return nil, fmt.Errorf("relstore %s: %w", s.name, err)
		}
		return sortLimit(rows, q), nil
	}
	it := &scanIter{s: s, q: q, limit: q.Limit}
	var buf [probeRows]int32
	candidates, indexed := t.candidateRows(q.Filter, buf[:0])
	switch {
	case indexed:
		it.cur = make([]types.Row, len(candidates))
		for i, pos := range candidates {
			it.cur[i] = t.at(int(pos))
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

// fold groups and aggregates the rows of t that pass q's filter. Caller
// holds mu.
func (t *table) fold(q *source.Query) ([]types.Row, error) {
	aggs := make([]expr.AccSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		aggs[i] = expr.AccSpec{Kind: a.Kind, Star: a.Star, Distinct: a.Distinct}
	}
	groups := expr.NewGroupTable(len(q.GroupBy), aggs)
	key := make(types.Row, len(q.GroupBy)) // scratch: the group key of the row in hand
	err := t.match(q.Filter, func(_ int, r types.Row) error {
		for j, g := range q.GroupBy {
			key[j] = r[g]
		}
		for j, acc := range groups.Group(key) {
			v := types.NewInt(1)
			if a := q.Aggs[j]; !a.Star {
				v = r[a.Col]
			}
			if err := acc.Add(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return groups.Rows(), nil
}

// match calls fn with each live row of t that passes filter, and its
// position, in table order: of the rows an index probe names when one
// applies (candidateRows), else of every row. The probe is complete
// before the first call, so fn may relink the row it is given. Caller
// holds mu.
func (t *table) match(filter expr.Expr, fn func(pos int, r types.Row) error) error {
	var buf [probeRows]int32
	candidates, indexed := t.candidateRows(filter, buf[:0])
	n := t.n
	if indexed {
		n = len(candidates)
	}
	for i := 0; i < n; i++ {
		pos := i
		if indexed {
			pos = int(candidates[i])
		}
		r := t.at(pos)
		if r == nil {
			continue
		}
		if filter != nil {
			ok, err := expr.EvalBool(filter, r)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := fn(pos, r); err != nil {
			return err
		}
	}
	return nil
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

// probeRows is how many positions an index probe collects on its
// caller's stack; a longer one allocates. point_remote's foreign-key
// probe names 50.
const probeRows = 128

// candidateRows appends to buf the positions of the rows a hash index
// says can pass the filter, in table order, and returns false when no
// index applies and the caller must scan every row. An index applies
// where the filter's range on its column (expr.ColumnRange) names
// finitely many values — an equality, an IN list as the semijoin
// strategy ships, or NULL, which names none — and of those that do, the
// one naming the fewest is probed, the lowest column on a tie: a key's
// bucket, keeping the rows whose value compares equal to it. The caller
// filters what the probe returns.
func (t *table) candidateRows(filter expr.Expr, buf []int32) ([]int32, bool) {
	var best *hashIndex
	var keys expr.Range
	var one [1]types.Value
	n := 0
	for _, x := range t.indexes {
		r, _ := expr.ColumnRange(filter, x.col)
		k := r.Points(one[:0])
		if k == nil {
			continue // an interval, which a hash index cannot walk
		}
		if best == nil || len(k) < n || (len(k) == n && x.col < best.col) {
			best, n, keys = x, len(k), r
		}
	}
	if best == nil {
		return nil, false
	}
	for _, k := range keys.Points(one[:0]) {
		for p := best.First(k.Hash(0)); p >= 0; p = best.Next(p) {
			if t.at(p)[best.col].Compare(k) == 0 {
				buf = append(buf, int32(p))
			}
		}
	}
	// A bucket runs from the row linked last, and two keys may share one:
	// positions are sorted and each kept once.
	slices.Sort(buf)
	return slices.Compact(buf), true
}

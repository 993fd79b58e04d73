package relstore

import (
	"context"
	"fmt"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// Execute implements source.Source. The store evaluates the full query
// IR locally: index-accelerated filter, projection, grouping/aggregation,
// sort, and limit. Results are materialized under the read lock and
// streamed lock-free afterwards (snapshot semantics per query).
func (s *Store) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.tableLocked(q.Table)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Without a usable index every row is a candidate: walk t.rows
	// itself rather than materialize the list of its positions.
	candidates, indexed := t.candidateRows(q.Filter)
	n := len(t.rows)
	if indexed {
		n = len(candidates)
	}

	var out []types.Row
	limitEarly := q.Limit >= 0 && !q.HasAggregation() &&
		len(q.OrderBy) == 0
	for i := 0; i < n; i++ {
		pos := i
		if indexed {
			pos = candidates[i]
		}
		r := t.rows[pos]
		if r == nil {
			continue
		}
		if q.Filter != nil {
			ok, err := expr.EvalBool(q.Filter, r)
			if err != nil {
				return nil, fmt.Errorf("relstore %s: %w", s.name, err)
			}
			if !ok {
				continue
			}
		}
		out = append(out, r)
		if limitEarly && int64(len(out)) >= q.Limit {
			break
		}
	}

	if q.HasAggregation() {
		out, err = aggregate(out, q.GroupBy, q.Aggs)
		if err != nil {
			return nil, fmt.Errorf("relstore %s: %w", s.name, err)
		}
	} else if q.Columns != nil {
		// One slab per result, not one allocation per row. Rows are cut
		// with a full slice expression so an append to one copies
		// instead of reaching its neighbour.
		w := len(q.Columns)
		proj := make([]types.Row, len(out))
		slab := make([]types.Value, w*len(out))
		for i, r := range out {
			nr := slab[i*w : (i+1)*w : (i+1)*w]
			for j, c := range q.Columns {
				if c < 0 || c >= len(r) {
					return nil, fmt.Errorf("relstore %s: projected column %d out of range", s.name, c)
				}
				nr[j] = r[c]
			}
			proj[i] = nr
		}
		out = proj
	}
	if len(q.OrderBy) > 0 {
		// Sorting mutates; the slice may alias committed rows only at
		// the top level, so copying the slice header set is enough.
		cp := make([]types.Row, len(out))
		copy(cp, out)
		source.SortRows(cp, q.OrderBy)
		out = cp
	}
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	return source.SliceIter(out), nil
}

// candidateRows returns row positions to test against the filter, using
// a hash index when the filter contains an equality — or an IN list, as
// shipped by the semijoin strategy — between an indexed column and
// constants. The second result is false when no index applies and the
// caller must scan every row.
func (t *table) candidateRows(filter expr.Expr) ([]int, bool) {
	for _, c := range expr.Conjuncts(filter) {
		switch n := c.(type) {
		case *expr.Binary:
			if n.Op != expr.OpEq {
				continue
			}
			col, colOK := n.L.(*expr.ColRef)
			val, valOK := n.R.(*expr.Const)
			if !colOK || !valOK {
				col, colOK = n.R.(*expr.ColRef)
				val, valOK = n.L.(*expr.Const)
			}
			if !colOK || !valOK || col.Index < 0 {
				continue
			}
			idx, indexed := t.hashIdx[col.Index]
			if !indexed {
				continue
			}
			return idx[val.Val.Hash(0)], true
		case *expr.InList:
			if n.Negate {
				continue
			}
			col, colOK := n.E.(*expr.ColRef)
			if !colOK || col.Index < 0 {
				continue
			}
			idx, indexed := t.hashIdx[col.Index]
			if !indexed {
				continue
			}
			// Union the probed buckets, deduplicating positions
			// (duplicate IN constants or hash collisions would
			// otherwise emit rows twice).
			var out []int
			seen := map[int]struct{}{}
			allConst := true
			for _, le := range n.List {
				k, isConst := le.(*expr.Const)
				if !isConst {
					allConst = false
					break
				}
				for _, pos := range idx[k.Val.Hash(0)] {
					if _, dup := seen[pos]; dup {
						continue
					}
					seen[pos] = struct{}{}
					out = append(out, pos)
				}
			}
			if allConst {
				return out, true
			}
		default:
			// Other conjuncts cannot use the hash index.
		}
	}
	return nil, false
}

// aggregate evaluates grouping and aggregates over materialized rows.
func aggregate(rows []types.Row, groupBy []int, aggs []source.AggSpec) ([]types.Row, error) {
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
	if len(order) == 0 && len(groupBy) == 0 {
		row := make(types.Row, len(aggs))
		for i, a := range aggs {
			row[i] = expr.NewAccumulator(a.Kind, a.Star, a.Distinct).Result()
		}
		return []types.Row{row}, nil
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(groupBy)+len(aggs))
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	return out, nil
}

package relstore

import (
	"context"
	"fmt"
	"io"
	"math/bits"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// Execute implements source.Source. The store evaluates the full query
// IR locally: index-accelerated filter, projection, grouping/aggregation,
// sort, and limit. Results are materialized under the read lock and
// streamed lock-free afterwards (snapshot semantics per query).
//
// The scan is one pass with no list of matches in between: an
// aggregating query folds each passing row into its group as it is
// found; any other marks it in a bitmap, whose size is known before the
// scan, so that the result is allocated once, at its exact size.
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

	// Without a usable index every row is a candidate: walk t.rows
	// itself rather than materialize the list of its positions.
	candidates, indexed := t.candidateRows(q.Filter)
	n := len(t.rows)
	if indexed {
		n = len(candidates)
	}
	rowAt := func(i int) types.Row {
		if indexed {
			return t.rows[candidates[i]]
		}
		return t.rows[i]
	}

	var (
		groups *expr.GroupTable
		key    types.Row // scratch: the group key of the row in hand
		// Bit i of passed is set when candidate i is in the result. Up
		// to 512 candidates it lives on the stack.
		small  [8]uint64
		passed = small[:]
		count  int
	)
	if q.HasAggregation() {
		aggs := make([]expr.AccSpec, len(q.Aggs))
		for i, a := range q.Aggs {
			aggs[i] = expr.AccSpec{Kind: a.Kind, Star: a.Star, Distinct: a.Distinct}
		}
		groups, key = expr.NewGroupTable(len(q.GroupBy), aggs), make(types.Row, len(q.GroupBy))
	} else if n > 64*len(small) {
		passed = make([]uint64, (n+63)/64)
	}
	limitEarly := q.Limit >= 0 && groups == nil && len(q.OrderBy) == 0
	for i := 0; i < n; i++ {
		r := rowAt(i)
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
		if groups == nil {
			passed[i/64] |= 1 << (i % 64)
			if count++; limitEarly && int64(count) >= q.Limit {
				break
			}
			continue
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
				return nil, fmt.Errorf("relstore %s: %w", s.name, err)
			}
		}
	}

	var out []types.Row
	project := groups == nil && q.Columns != nil
	if groups != nil {
		out = groups.Rows()
	} else {
		// The committed rows themselves: they are replaced, never
		// mutated, so the snapshot outlives the lock.
		out = make([]types.Row, 0, count)
		for base, word := range passed {
			for ; word != 0; word &= word - 1 {
				out = append(out, rowAt(base*64+bits.TrailingZeros64(word)))
			}
		}
	}
	if len(q.OrderBy) > 0 {
		if project {
			// ORDER BY addresses projected positions: project now, in
			// place, into the one slab a kept result gets.
			p := projectIter{rows: out, cols: q.Columns}
			for i := range out {
				out[i] = p.project()
			}
			project = false
		}
		// out is this query's own slice, never t.rows: sort it in place.
		source.SortRows(out, q.OrderBy)
	}
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	if project {
		return &projectIter{rows: out, cols: q.Columns}, nil
	}
	return source.SliceIter(out), nil
}

// projectIter streams a projected result: the snapshot of committed
// rows Execute took under the read lock, projected as they are asked
// for. Kept (the default), the projected rows are carved from one slab
// of the exact result size, allocated at the first Next, each cut with
// a full slice expression so an append to one copies instead of
// reaching its neighbour. Lent, there is one row, written again by
// every Next.
type projectIter struct {
	rows []types.Row // what is left of the snapshot
	cols []int       // in range of every row: Execute checked
	slab []types.Value
	lent bool
}

// Lend implements source.Lender.
func (p *projectIter) Lend() { p.lent = true }

// Next implements source.RowIter.
func (p *projectIter) Next() (types.Row, error) {
	if len(p.rows) == 0 {
		return nil, io.EOF
	}
	return p.project(), nil
}

// project takes the first row off the snapshot and returns its
// projection.
func (p *projectIter) project() types.Row {
	w := len(p.cols)
	if p.slab == nil {
		n := w
		if !p.lent {
			n *= len(p.rows)
		}
		p.slab = make([]types.Value, n)
	}
	out := p.slab[:w:w]
	if !p.lent {
		p.slab = p.slab[w:]
	}
	for j, c := range p.cols {
		out[j] = p.rows[0][c]
	}
	p.rows = p.rows[1:]
	return out
}

// Close implements source.RowIter.
func (p *projectIter) Close() error { return nil }

// candidateRows returns row positions to test against the filter, using
// a hash index when the filter contains an equality — or an IN list, as
// shipped by the semijoin strategy — between an indexed column and
// constants. The second result is false when no index applies and the
// caller must scan every row.
func (t *table) candidateRows(filter expr.Expr) ([]int, bool) {
	for _, c := range expr.Conjuncts(filter) {
		switch n := c.(type) {
		case *expr.Binary:
			col, op, val, ok := expr.ColumnComparison(n)
			if !ok || op != expr.OpEq || col.Index < 0 {
				continue
			}
			idx, indexed := t.hashIdx[col.Index]
			if !indexed {
				continue
			}
			return idx[val.Hash(0)], true
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

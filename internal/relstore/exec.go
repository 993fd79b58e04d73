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
//   - an index probe copies the positions it names, and is counted open
//     until it is read to its end or closed (Tx.table);
//   - any other query is a scan of the whole table, and borrows it
//     (table.view): the filter, the projection and the limit happen in
//     Next, after the lock is gone. A probe takes no view, so that a
//     point read never makes the next write copy anything.
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
	it := &scanIter{s: s, q: q, t: t, limit: q.Limit, w: int32(filterWidth(q.Filter))}
	var buf [probeRows]int32
	candidates, indexed, exact := t.candidateRows(q.Filter, buf[:0])
	switch {
	case indexed:
		probe := it.probed[:0]
		if len(candidates) > len(it.probed) {
			probe = make([]int32, 0, len(candidates))
		}
		it.dir, it.probe, it.probing = t.dir, append(probe, candidates...), true
		if exact {
			it.exact, it.w = true, 0
		}
		t.probing.Add(1)
	case len(q.OrderBy) > 0:
		// Drained below, under the lock: there is nothing to borrow.
		it.dir, it.n = t.dir, int32(t.n)
	default:
		dir, n := t.view()
		it.dir, it.n = dir, int32(n)
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

// filterWidth is how wide a row the filter reads must be.
func filterWidth(filter expr.Expr) (w int) {
	expr.Columns(filter, func(c int) { w = max(w, c+1) })
	return w
}

// cursor walks the live rows of a version of a table: at the positions
// an index probe names, or every one below n.
type cursor struct {
	dir     []*types.Chunk
	probe   []int32 // nil: a scan
	next, n int32   // a scan's next position, and its end
}

// advance returns the next row that passes filter, its position and
// chunk, or a nil chunk at the end. The filter reads row, into which the
// row in hand's first filterWidth columns are decoded.
func (cu *cursor) advance(filter expr.Expr, row types.Row) (int, *types.Chunk, error) {
	for {
		var pos int
		switch {
		case len(cu.probe) > 0:
			pos, cu.probe = int(cu.probe[0]), cu.probe[1:]
		case cu.probe == nil && cu.next < cu.n:
			pos = int(cu.next)
			cu.next++
		default:
			return 0, nil, nil
		}
		c, k := cu.dir[pos/types.ChunkRows], pos%types.ChunkRows
		if !c.Live(k) {
			continue
		}
		if filter != nil {
			c.Decode(k, row)
			ok, err := expr.EvalBool(filter, row)
			if err != nil {
				return 0, nil, err
			}
			if !ok {
				continue
			}
		}
		return pos, c, nil
	}
}

// fold groups and aggregates the rows of t that pass q's filter, reading
// each one's grouping and aggregated columns from its vectors. Caller
// holds mu.
func (t *table) fold(q *source.Query) ([]types.Row, error) {
	aggs := make([]expr.AccSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		aggs[i] = expr.AccSpec{Kind: a.Kind, Star: a.Star, Distinct: a.Distinct}
	}
	groups := expr.NewGroupTable(len(q.GroupBy), aggs)
	// Scratch, in one allocation: what the filter reads, then the group
	// key of the row in hand.
	w := filterWidth(q.Filter)
	scratch := make(types.Row, w+len(q.GroupBy))
	key := scratch[w:]
	err := t.match(q.Filter, scratch[:w:w], func(pos int, c *types.Chunk) error {
		for j, g := range q.GroupBy {
			key[j] = c.Cols[g].At(pos % types.ChunkRows)
		}
		g := groups.Group(key)
		for j, a := range q.Aggs {
			var v types.Value
			if !a.Star {
				v = c.Cols[a.Col].At(pos % types.ChunkRows)
			}
			if err := groups.Fold(g, j, v); err != nil {
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

// match calls fn with each live row of t that passes filter, its
// position and chunk, in table order: of the rows an index probe names
// when one applies (candidateRows), else of every row. The filter reads
// row, filterWidth wide. The probe is complete before the first call,
// so fn may write and relink the row it is given; the rows after it are
// read from the version the walk began on, which holds them as they are.
// Caller holds mu.
func (t *table) match(filter expr.Expr, row types.Row, fn func(pos int, c *types.Chunk) error) error {
	var buf [probeRows]int32
	cu := cursor{dir: t.dir, n: int32(t.n)}
	if candidates, indexed, _ := t.candidateRows(filter, buf[:0]); indexed {
		cu.probe = candidates
	}
	for {
		pos, c, err := cu.advance(filter, row)
		if c == nil || err != nil {
			return err
		}
		if err := fn(pos, c); err != nil {
			return err
		}
	}
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

// scanIter streams the rows of a table — of the chunks a view lent, or
// at the positions an index probe copied — that pass the filter,
// projected, up to the limit. Its cursor decodes what the filter reads
// into a scratch row; a row that passes is emitted (types.Chunk.Emit)
// into a slab's row, or lent, into one made with the scratch. A probe of
// a few positions and a narrow scratch are held in the iterator itself,
// so that a point read is one object.
type scanIter struct {
	cursor
	s       *Store
	q       *source.Query // its Filter and Columns, which Execute checked
	t       *table
	limit   int64 // rows still wanted; negative: all
	w       int32 // how wide a row the filter reads; 0 when exact
	probing bool  // counted in t.probing
	lent    bool
	exact   bool      // the probe alone decides the filter, which is not evaluated again
	buf     types.Row // the filter's row, w wide; lent, the row handed out follows it
	slab    types.RowSlab
	cells   [narrowRow]types.Value // buf, when it is narrow
	probed  [inlineProbe]int32     // a short probe's positions
}

// narrowRow is how many values a scan's scratch may be and still be kept
// in its iterator, and inlineProbe how many positions a probe may name:
// point_remote's key lookup is lent four values by one position. The
// iterator holding both (288 B) takes fewer bytes than a served key
// lookup's iterator, row and copied probe took as three objects; a scan
// that is kept its rows, and reads no filter, carries them unused.
const (
	narrowRow   = 4
	inlineProbe = 4
)

// Use implements source.Hinted: lent, the row handed out shares one
// allocation with the filter's scratch; kept, the rows are carved from
// one block.
func (it *scanIter) Use(n int) {
	it.lent = n == source.Lent
	it.slab.Use(n)
}

// Next implements source.RowIter.
func (it *scanIter) Next() (types.Row, error) {
	if it.buf == nil {
		n := int(it.w)
		if it.lent {
			n += len(it.q.Columns)
			if it.q.Columns == nil {
				n += it.t.schema.Len()
			}
		}
		if n <= len(it.cells) {
			it.buf = it.cells[:n:n]
		} else {
			it.buf = make(types.Row, n)
		}
	}
	if it.limit != 0 {
		filter := it.q.Filter
		if it.exact {
			filter = nil
		}
		pos, c, err := it.advance(filter, it.buf[:it.w:it.w])
		if err != nil {
			return nil, fmt.Errorf("relstore %s: %w", it.s.name, err)
		}
		if c != nil {
			if it.limit > 0 {
				it.limit--
			}
			var out types.Row
			if it.lent {
				out = it.buf[it.w:]
			}
			return c.Emit(pos%types.ChunkRows, it.q.Columns, out, &it.slab), nil
		}
	}
	_ = it.Close()
	return nil, io.EOF
}

// Close implements source.RowIter: no further row is read, and a probe
// is no longer counted open. Next closes at the end of the rows.
func (it *scanIter) Close() error {
	it.limit = 0
	if it.probing {
		it.probing = false
		it.t.probing.Add(-1)
	}
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
// filters what the probe returns, unless exact: the filter is one
// conjunct, col = constant or col IN (constants), on the probed column,
// which passes a row exactly when its value compares equal to a non-NULL
// constant — the rows the probe keeps.
func (t *table) candidateRows(filter expr.Expr, buf []int32) (rows []int32, indexed, exact bool) {
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
		return nil, false, false
	}
	col, ok := expr.ColumnConstraint(filter)
	exact = ok && col.Index == best.col
	for _, k := range keys.Points(one[:0]) {
		for p := best.First(k.Hash(0)); p >= 0; p = best.Next(p) {
			if t.value(p, best.col).Compare(k) == 0 {
				buf = append(buf, int32(p))
			}
		}
	}
	// A bucket runs from the row linked last, and two keys may share one:
	// positions are sorted and each kept once.
	slices.Sort(buf)
	return slices.Compact(buf), true, exact
}

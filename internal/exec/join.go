package exec

import (
	"context"
	"io"
	"slices"

	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// runJoin dispatches on the join's distributed strategy.
func runJoin(ctx context.Context, j *plan.Join) (source.RowIter, error) {
	if j.Strategy == plan.StrategySemiJoin {
		return runKeyShippedJoin(ctx, j)
	}
	return runLocalJoin(ctx, j)
}

// runLocalJoin joins both inputs at the mediator: the right side
// materialized — kept, and charged to the statement's quota until the
// join closes — and the left streamed against it. A join copies the left
// row into each row it builds, so it tells its left input Lent.
func runLocalJoin(ctx context.Context, j *plan.Join) (_ source.RowIter, err error) {
	acct := accountOn(ctx)
	defer acct.closeOnError(&err)
	right, err := acct.collect(ctx, j.R)
	if err != nil {
		return nil, err
	}
	left, err := Run(ctx, j.L)
	if err != nil {
		return nil, err
	}
	source.Use(left, source.Lent)
	return joinRows(ctx, j, left, right, acct), nil
}

// joinRows joins a left stream with materialized right rows in the one
// probe loop there is: a left row's candidates are its bucket of a hash
// table built on the right when the join has equi keys, and every right
// row when it has none (a non-equi join or one with no condition —
// nested loops). The rows it builds are lent or kept as its consumer
// tells it (joinIter.Use). acct is what the kept rows are charged; the
// join closes it when it closes.
//
// The hash table is a types.HashChain of the right rows' positions,
// sized for every row: one allocation that never grows. Linked last row
// first, a bucket yields matches in the order the rows came in.
func joinRows(ctx context.Context, j *plan.Join, left source.RowIter, right []types.Row, acct account) source.RowIter {
	it := &joinIter{ctx: ctx, j: j, left: left, right: right, acct: acct, rightWidth: widthOfRight(j, right)}
	if len(j.EquiL) > 0 {
		it.chain = types.NewHashChain(len(right))
		for i := len(right) - 1; i >= 0; i-- {
			it.chain.Link(i, keyHash(right[i], j.EquiR), nil)
		}
	}
	return it
}

func widthOfRight(j *plan.Join, right []types.Row) int {
	if len(right) > 0 {
		return len(right[0])
	}
	return j.R.Schema().Len()
}

// keyHash hashes r's key columns in place, as the Row of them would
// hash, without building that row.
func keyHash(r types.Row, cols []int) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range cols {
		h = r[c].Hash(h)
	}
	return h
}

// keyHasNull reports whether any key column of r is NULL (NULL never
// matches in SQL join semantics).
func keyHasNull(r types.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// keyEqual compares the projected keys of a left and a right row column
// by column, without materializing either projection.
func keyEqual(l types.Row, lc []int, r types.Row, rc []int) bool {
	if len(lc) != len(rc) {
		return false
	}
	for i := range lc {
		if !l[lc[i]].Equal(r[rc[i]]) {
			return false
		}
	}
	return true
}

// joinedRow carves l followed by r. A row the condition rejects is
// given back with Undo.
func joinedRow(slab *types.RowSlab, l, r types.Row) types.Row {
	out := slab.Next(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// leftPadded carves l followed by rightWidth NULLs, which a carved row
// already holds.
func leftPadded(slab *types.RowSlab, l types.Row, rightWidth int) types.Row {
	out := slab.Next(len(l) + rightWidth)
	copy(out, l)
	return out
}

// joinIter streams left rows against the kept right rows: both join
// kinds, hash or nested loops, run through its Next.
type joinIter struct {
	ctx        context.Context
	j          *plan.Join
	left       source.RowIter
	right      []types.Row
	chain      types.HashChain // without equi keys, none
	rightWidth int
	acct       account

	// Iteration state: the current left row's candidates still to be
	// tried. matchBuf backs a bucket's key-equal rows and is reused
	// across probe rows.
	cur      types.Row
	matches  []types.Row
	matchBuf []types.Row
	midx     int
	matched  bool
	done     bool
	slab     types.RowSlab
}

func (h *joinIter) Next() (types.Row, error) {
	for {
		if h.done {
			return nil, io.EOF
		}
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		// Emit pending matches of the current left row.
		for h.midx < len(h.matches) {
			r := h.matches[h.midx]
			h.midx++
			joined := joinedRow(&h.slab, h.cur, r)
			ok, err := h.condHolds(joined)
			if err != nil {
				return nil, err
			}
			if !ok {
				h.slab.Undo(joined)
				continue
			}
			h.matched = true
			return joined, nil
		}
		// Current left row exhausted: a left join pads an unmatched one,
		// an inner join drops it.
		if h.cur != nil {
			cur := h.cur
			h.cur = nil
			if !h.matched && h.j.Kind == plan.JoinLeft {
				return leftPadded(&h.slab, cur, h.rightWidth), nil
			}
		}
		// Advance to the next left row.
		l, err := h.left.Next()
		if err == io.EOF {
			h.done = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		h.cur = l
		h.matched = false
		h.midx = 0
		h.matches = h.candidates(l)
	}
}

// candidates are the right rows l is tried against. Without equi keys
// that is all of them. With equi keys it is the rows of l's bucket whose
// right key equals l's left key — none when a key column is NULL — in a
// scratch buffer reused across probe rows (the previous row's matches
// are fully consumed before the next probe). The condition, which
// includes the equi predicates, is evaluated over each candidate either
// way; comparing keys first spares carving a row for a bucket's other
// keys.
func (h *joinIter) candidates(l types.Row) []types.Row {
	if len(h.j.EquiL) == 0 {
		return h.right
	}
	if keyHasNull(l, h.j.EquiL) {
		return nil
	}
	out := h.matchBuf[:0]
	for p := h.chain.First(keyHash(l, h.j.EquiL)); p >= 0; p = h.chain.Next(p) {
		if r := h.right[p]; !keyHasNull(r, h.j.EquiR) && keyEqual(l, h.j.EquiL, r, h.j.EquiR) {
			out = append(out, r)
		}
	}
	h.matchBuf = out
	return out
}

// condHolds evaluates the join's full condition over a joined row.
func (h *joinIter) condHolds(joined types.Row) (bool, error) {
	if h.j.Cond == nil {
		return true, nil
	}
	return expr.EvalBool(h.j.Cond, joined)
}

// Use implements source.Hinted: the joined rows are one row lent, or
// carved from one block (a row the condition rejects is given back into
// it).
func (h *joinIter) Use(n int) { h.slab.Use(n) }

func (h *joinIter) Close() error {
	h.acct.close()
	return h.left.Close()
}

// runKeyShippedJoin implements the semijoin strategy: materialize the
// left input, ship its distinct join-key values to the right side's
// fragment scans, and join the reduced right side at the mediator. Which
// keys go to which fragment, and in how many sub-queries, is the plan's
// to say (plan.KeyQueries); a fragment it gives none is not
// asked. The right side arrives through the one merge (runMerge), its
// fragments fetched at once or in plan order as its union says. Both
// sides are kept, charged to the statement's quota until the join
// closes; the joined rows are lent or kept as the join's consumer says.
func runKeyShippedJoin(ctx context.Context, j *plan.Join) (_ source.RowIter, err error) {
	acct := accountOn(ctx)
	defer acct.closeOnError(&err)
	leftRows, err := acct.collect(ctx, j.L)
	if err != nil {
		return nil, err
	}
	if len(leftRows) == 0 {
		return source.SliceIter(nil), nil
	}
	// The distinct join keys of the (first) equi column, sorted.
	keys := make([]types.Value, 0, len(leftRows))
	for _, r := range leftRows {
		if v := r[j.EquiL[0]]; !v.IsNull() {
			keys = append(keys, v)
		}
	}
	slices.SortFunc(keys, types.Value.Compare)
	keys = slices.CompactFunc(keys, types.Value.Equal)
	// One merge input per fragment and sub-query of its keys.
	inputs, queries, err := plan.KeyQueries(j.R, j.EquiR[0], keys)
	if err != nil {
		return nil, err
	}
	u, _ := j.R.(*plan.Union)
	right, err := acct.drain(runMerge(ctx, inputs, queries, u != nil && u.Parallel), 0)
	if err != nil {
		return nil, err
	}
	return joinRows(ctx, j, source.SliceIter(leftRows), right, acct), nil
}

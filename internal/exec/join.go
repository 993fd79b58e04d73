package exec

import (
	"context"
	"fmt"
	"io"
	"slices"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// semiJoinKeyLimit chunks IN-lists shipped by the semijoin strategy so a
// single remote query stays bounded.
const semiJoinKeyLimit = 1000

// runJoin dispatches on the join's distributed strategy. lent is what
// the join's consumer said (runNode).
func runJoin(ctx context.Context, j *plan.Join, lent bool) (source.RowIter, error) {
	if j.Strategy == plan.StrategySemiJoin {
		return runKeyShippedJoin(ctx, j, lent)
	}
	return runLocalJoin(ctx, j, lent)
}

// runLocalJoin joins both inputs at the mediator: the right side
// materialized — kept — and the left streamed against it. A join copies
// the left row into each row it builds, so it asks for lent left rows.
func runLocalJoin(ctx context.Context, j *plan.Join, lent bool) (source.RowIter, error) {
	right, err := Collect(ctx, j.R)
	if err != nil {
		return nil, err
	}
	left, err := runNode(ctx, j.L, true)
	if err != nil {
		return nil, err
	}
	return joinRows(ctx, j, left, right, lent), nil
}

// joinRows joins a left stream with materialized right rows in the one
// probe loop there is: a left row's candidates are its bucket of a hash
// table built on the right when the join has equi keys, and every right
// row when it has none (a non-equi join or one with no condition —
// nested loops). The rows it builds are lent iff lent.
func joinRows(ctx context.Context, j *plan.Join, left source.RowIter, right []types.Row, lent bool) source.RowIter {
	build := hashBuild{rows: right}
	if len(j.EquiL) > 0 {
		build = newHashBuild(right, j.EquiR)
	}
	return &joinIter{
		ctx: ctx, j: j, left: left, build: build, slab: slabFor(lent),
		rightWidth: widthOfRight(j, right),
	}
}

// hashBuild is a hash join's build side: the rows as they arrived and
// two arrays of positions over them — head, the first row of each
// bucket, and next, the row after each row in its bucket — instead of a
// slice per distinct key. Positions are stored plus one, so a zeroed
// array is an empty table. A bucket is a hash's low bits and may hold
// several keys; the probe compares keys, and walks a bucket in arrival
// order, so matches come out in the order the rows came in. (int32: the
// rows are materialized before the table is built, a long way short of
// 2^31 of them.) A join without equi keys has the rows and no table.
type hashBuild struct {
	rows []types.Row
	head []int32 // len is a power of two, at least len(rows)
	next []int32
}

func newHashBuild(rows []types.Row, cols []int) hashBuild {
	size := 1
	for size < len(rows) {
		size *= 2
	}
	// One allocation backs both arrays.
	pos := make([]int32, size+len(rows))
	b := hashBuild{rows: rows, head: pos[:size], next: pos[size:]}
	// Last row first, each put at the head of its bucket: the chains
	// run in arrival order.
	for i := len(rows) - 1; i >= 0; i-- {
		slot := &b.head[keyHash(rows[i], cols)&uint64(size-1)]
		b.next[i], *slot = *slot, int32(i+1)
	}
	return b
}

func widthOfRight(j *plan.Join, right []types.Row) int {
	if len(right) > 0 {
		return len(right[0])
	}
	return j.R.Schema().Len()
}

// keyHash hashes r's key columns in place, matching what
// keyOf(r, cols).Hash() used to produce. Build and probe sides both run
// once per row, so materializing the projected key was one Row
// allocation per row on the join hot path.
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
	build      hashBuild
	rightWidth int

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
	b := &h.build
	if len(h.j.EquiL) == 0 {
		return b.rows
	}
	if keyHasNull(l, h.j.EquiL) {
		return nil
	}
	out := h.matchBuf[:0]
	for i := b.head[keyHash(l, h.j.EquiL)&uint64(len(b.head)-1)]; i != 0; i = b.next[i-1] {
		if r := b.rows[i-1]; !keyHasNull(r, h.j.EquiR) && keyEqual(l, h.j.EquiL, r, h.j.EquiR) {
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

func (h *joinIter) Close() error { return h.left.Close() }

// runKeyShippedJoin implements the semijoin strategy: materialize the
// left input, ship its distinct join-key values to the right side's
// fragment scans as IN predicates (semiJoinKeyLimit to a sub-query), and
// join the reduced right side at the mediator. A key goes only to the
// fragments whose partition predicate admits it, and a fragment that
// admits none is not asked. The right side arrives through the one
// merge (runMerge), its fragments fetched at once or in plan order as
// its union says. Both sides are kept; the joined rows are lent iff
// lent.
func runKeyShippedJoin(ctx context.Context, j *plan.Join, lent bool) (source.RowIter, error) {
	leftRows, err := Collect(ctx, j.L)
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
	scans := plan.FragScans(j.R)
	if scans == nil {
		return nil, fmt.Errorf("exec: %s strategy requires fragment scans on the right side", j.Strategy)
	}
	// One merge input per fragment and chunk of the keys it admits.
	inputs := make([]plan.Node, 0, len(scans))
	preds := make([]expr.Expr, 0, len(scans))
	admitted := make([]types.Value, 0, len(keys))
	for _, fs := range scans {
		mapping, ok := fs.CanBindOn(j.EquiR[0])
		if !ok {
			return nil, fmt.Errorf("exec: fragment %s.%s cannot accept join keys", fs.Frag.Source, fs.Frag.RemoteTable)
		}
		where, _ := expr.ColumnRange(fs.Frag.Where, fs.Cols[fs.Out[j.EquiR[0]]])
		admitted = admitted[:0]
		for _, k := range keys {
			if where.Admits(k) {
				admitted = append(admitted, k)
			}
		}
		rtype := fs.Frag.Info().Schema.Columns[mapping.RemoteCol].Type
		for start := 0; start < len(admitted); start += semiJoinKeyLimit {
			pred, err := buildKeyPredicate(mapping, rtype, admitted[start:min(start+semiJoinKeyLimit, len(admitted))])
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, fs)
			preds = append(preds, pred)
		}
	}
	u, _ := j.R.(*plan.Union)
	right, err := source.Drain(runMerge(ctx, inputs, preds, u != nil && u.Parallel))
	if err != nil {
		return nil, err
	}
	return joinRows(ctx, j, source.SliceIter(leftRows), right, lent), nil
}

// buildKeyPredicate translates global key values to the remote
// representation and builds the IN (or =) predicate to ship.
func buildKeyPredicate(m *catalog.ColumnMapping, rtype types.Kind, keys []types.Value) (expr.Expr, error) {
	ref := expr.NewBoundColRef(m.RemoteCol, rtype, "")
	if len(keys) == 1 {
		rv, ok := m.ToRemote(keys[0])
		if !ok {
			return nil, fmt.Errorf("exec: join key %v is not translatable to the remote representation", keys[0])
		}
		rv, err := source.CoerceForColumn(rv, rtype)
		if err != nil {
			return nil, err
		}
		return expr.NewBinary(expr.OpEq, ref, expr.NewConst(rv)), nil
	}
	list := make([]expr.Expr, len(keys))
	for i, k := range keys {
		rv, ok := m.ToRemote(k)
		if !ok {
			return nil, fmt.Errorf("exec: join key %v is not translatable to the remote representation", k)
		}
		rv, err := source.CoerceForColumn(rv, rtype)
		if err != nil {
			return nil, err
		}
		list[i] = expr.NewConst(rv)
	}
	return &expr.InList{E: ref, List: list}, nil
}

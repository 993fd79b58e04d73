package exec

import (
	"context"
	"io"

	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// runMergeJoin streams two inputs that the optimizer arranged to arrive
// sorted ascending on the (single) equi-join key, joining them without a
// hash table. Inner joins only; rows with NULL keys never match and are
// skipped.
func runMergeJoin(ctx context.Context, j *plan.Join) (source.RowIter, error) {
	left, err := Run(ctx, j.L)
	if err != nil {
		return nil, err
	}
	right, err := Run(ctx, j.R)
	if err != nil {
		_ = left.Close() // the Run error wins
		return nil, err
	}
	return &mergeJoinIter{
		ctx: ctx, j: j,
		left: left, right: right,
		lKey: j.EquiL[0], rKey: j.EquiR[0],
	}, nil
}

// mergeJoinIter implements the classic sort-merge join with duplicate
// runs buffered on the right side.
type mergeJoinIter struct {
	ctx   context.Context
	j     *plan.Join
	left  source.RowIter
	right source.RowIter
	lKey  int
	rKey  int

	curL     types.Row
	rightRun []types.Row // right rows sharing the current key
	runKey   types.Value
	runIdx   int
	nextR    types.Row // lookahead past the current run
	rightEOF bool
	done     bool
	slab     types.RowSlab
}

// Next implements source.RowIter.
func (m *mergeJoinIter) Next() (types.Row, error) {
	for {
		if m.done {
			return nil, io.EOF
		}
		if err := m.ctx.Err(); err != nil {
			return nil, err
		}
		// Emit pending matches for the current left row.
		for m.curL != nil && m.runIdx < len(m.rightRun) {
			joined := joinedRow(&m.slab, m.curL, m.rightRun[m.runIdx])
			m.runIdx++
			ok := true
			if m.j.Cond != nil {
				var err error
				ok, err = expr.EvalBool(m.j.Cond, joined)
				if err != nil {
					return nil, err
				}
			}
			if ok {
				return joined, nil
			}
			m.slab.Undo(joined)
		}
		// Advance the left side.
		l, err := m.left.Next()
		if err == io.EOF {
			m.done = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		lk := l[m.lKey]
		if lk.IsNull() {
			continue
		}
		// Position the right run at lk.
		if err := m.advanceRunTo(lk); err != nil {
			return nil, err
		}
		if len(m.rightRun) == 0 || m.runKey.Compare(lk) != 0 {
			continue // no right rows for this key
		}
		m.curL = l
		m.runIdx = 0
	}
}

// advanceRunTo moves the buffered right-side run forward until its key
// is >= k (keys ascend on both inputs). Re-used runs (duplicate left
// keys) are kept.
func (m *mergeJoinIter) advanceRunTo(k types.Value) error {
	// Current run already at or past k?
	if len(m.rightRun) > 0 && m.runKey.Compare(k) >= 0 {
		return nil
	}
	for {
		// Pull the next right row (from lookahead or the iterator).
		var r types.Row
		if m.nextR != nil {
			r = m.nextR
			m.nextR = nil
		} else if m.rightEOF {
			m.rightRun = nil
			return nil
		} else {
			var err error
			r, err = m.right.Next()
			if err == io.EOF {
				m.rightEOF = true
				m.rightRun = nil
				return nil
			}
			if err != nil {
				return err
			}
		}
		rk := r[m.rKey]
		if rk.IsNull() {
			continue
		}
		if rk.Compare(k) < 0 {
			continue // still below the probe key
		}
		// Start a new run at rk and absorb its duplicates.
		m.rightRun = m.rightRun[:0]
		m.rightRun = append(m.rightRun, r)
		m.runKey = rk
		for {
			nr, err := m.right.Next()
			if err == io.EOF {
				m.rightEOF = true
				return nil
			}
			if err != nil {
				return err
			}
			nk := nr[m.rKey]
			if nk.IsNull() {
				continue
			}
			if nk.Compare(rk) == 0 {
				m.rightRun = append(m.rightRun, nr)
				continue
			}
			m.nextR = nr
			return nil
		}
	}
}

// Close implements source.RowIter.
func (m *mergeJoinIter) Close() error {
	lerr := m.left.Close()
	if rerr := m.right.Close(); rerr != nil {
		return rerr
	}
	return lerr
}

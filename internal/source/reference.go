package source

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"gis/internal/expr"
	"gis/internal/types"
)

// ApplyResidual is the reference evaluator of the sub-query IR: it does
// to rows, the plain way, everything q asks — filter, then group and
// aggregate or project, then order, then limit — as if rows were the
// table and nothing had been pushed. The stores' tests compare Execute
// with it; the production executor and the stores implement the same
// semantics with streaming operators.
func ApplyResidual(rows []types.Row, q *Query) ([]types.Row, error) {
	out := rows
	if q.Filter != nil {
		kept := out[:0:0]
		for _, r := range out {
			ok, err := expr.EvalBool(q.Filter, r)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	if q.HasAggregation() {
		var err error
		out, err = aggregateRows(out, q.GroupBy, q.Aggs)
		if err != nil {
			return nil, err
		}
	} else if q.Columns != nil {
		proj := make([]types.Row, len(out))
		for i, r := range out {
			nr := make(types.Row, len(q.Columns))
			for j, c := range q.Columns {
				nr[j] = r[c]
			}
			proj[i] = nr
		}
		out = proj
	}
	if len(q.OrderBy) > 0 {
		SortRows(out, q.OrderBy)
	}
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// SortRows sorts rows in place by the given keys; rows that tie keep
// their order.
func SortRows(rows []types.Row, keys []OrderSpec) {
	slices.SortStableFunc(rows, func(a, b types.Row) int {
		for _, k := range keys {
			c := a[k.Col].Compare(b[k.Col])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
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

// DrainOwned is the reference keeper: Drain, with the ownership rule of
// RowIter checked. Every row is also deep-copied as it is delivered, and
// when the stream ends each row Drain holds must still read as its copy
// does; a difference means some stage below lent a row to a consumer
// that keeps it. The executor's, the stores' and the wire's tests drain
// through it.
func DrainOwned(it RowIter) ([]types.Row, error) {
	c := &copyIter{RowIter: it}
	rows, err := Drain(c)
	if err != nil {
		return rows, err
	}
	for i, r := range rows {
		if !slices.Equal(r, c.copies[i]) {
			return rows, fmt.Errorf("source: row %d of %d was delivered as %v and reads %v at the end of the stream: a kept row was lent", i, len(rows), c.copies[i], r)
		}
	}
	return rows, nil
}

// DrainCopies is the reference consumer that keeps no row: it copies
// each row as it is delivered and never looks at it again, which is all
// a lent row allows. What it returns from an iterator asked to lend
// must equal what DrainOwned returns from one that was not.
func DrainCopies(it RowIter) ([]types.Row, error) {
	c := &copyIter{RowIter: it}
	_, err := Drain(c)
	return c.copies, err
}

// copyIter deep-copies every row on its way through.
type copyIter struct {
	RowIter
	copies []types.Row
}

func (c *copyIter) Next() (types.Row, error) {
	r, err := c.RowIter.Next()
	if err == nil {
		c.copies = append(c.copies, r.Clone())
	}
	return r, err
}

// Allocations reports the objects and the bytes one call of run
// allocates: what the stores' slope tests compare between a table and
// one twice its size. It is the least of a few readings, since whatever
// else the runtime allocates meanwhile lands in them too.
func Allocations(run func()) (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		objects, bytes = min(objects, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

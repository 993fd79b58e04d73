// Package stats implements table and column statistics — row counts,
// distinct-value estimates, min/max, null fractions, and equi-depth
// histograms — plus the selectivity estimator the cost-based optimizer
// prices a scan's filter with.
package stats

import (
	"fmt"
	"math"
	"slices"

	"gis/internal/expr"
	"gis/internal/types"
)

// DefaultBuckets is the histogram resolution used by Collect.
const DefaultBuckets = 32

// ColumnStats summarizes one column's value distribution.
type ColumnStats struct {
	// NDV is the estimated number of distinct non-null values.
	NDV int64
	// NullCount is the number of NULLs observed.
	NullCount int64
	// Min and Max bound the non-null values; Null when the column was
	// all-NULL or unobserved.
	Min, Max types.Value
	// Hist is an equi-depth histogram over non-null values; nil when
	// too few values were observed.
	Hist *Histogram
}

// TableStats summarizes one table (or table fragment).
type TableStats struct {
	RowCount int64
	Columns  []ColumnStats
}

// Collect computes full statistics from a materialized table scan, a
// column at a time (CollectColumn): each column's non-NULL values are
// copied into one scratch slice, reused from column to column.
func Collect(rows []types.Row, width int) *TableStats {
	ts := &TableStats{RowCount: int64(len(rows)), Columns: make([]ColumnStats, width)}
	vals := make([]types.Value, 0, len(rows))
	for c := range ts.Columns {
		vals = vals[:0]
		var nulls int64
		for _, r := range rows {
			switch {
			case c >= len(r):
			case r[c].IsNull():
				nulls++
			default:
				vals = append(vals, r[c])
			}
		}
		ts.Columns[c] = CollectColumn(vals, nulls)
	}
	return ts
}

// CollectChunks computes what Collect does from the live rows of chunks,
// in order, a column at a time: each column's non-NULL values are
// gathered from its vectors into one scratch slice, reused.
func CollectChunks(chunks []*types.Chunk, width int) *TableStats {
	ts := &TableStats{Columns: make([]ColumnStats, width)}
	vals := make([]types.Value, 0, len(chunks)*types.ChunkRows)
	for c := range ts.Columns {
		vals, nulls := vals[:0], int64(0)
		for _, ch := range chunks {
			for k := range ch.Len() {
				switch v := ch.Cols[c].At(k); {
				case !ch.Live(k):
				case v.IsNull():
					nulls++
				default:
					vals = append(vals, v)
				}
			}
		}
		ts.RowCount, ts.Columns[c] = int64(len(vals))+nulls, CollectColumn(vals, nulls)
	}
	return ts
}

// CollectColumn summarizes one column from its non-NULL values, which
// it sorts in place, and its count of NULLs: Min and Max are the sorted
// values' ends, NDV is the number of runs of Equal values (a NaN, equal
// to nothing, is a run of its own), and the histogram is cut from them.
func CollectColumn(vals []types.Value, nulls int64) ColumnStats {
	cs := ColumnStats{NullCount: nulls}
	if len(vals) == 0 {
		return cs
	}
	slices.SortFunc(vals, types.Value.Compare)
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]
	cs.NDV = 1
	for i := 1; i < len(vals); i++ {
		if !vals[i].Equal(vals[i-1]) {
			cs.NDV++
		}
	}
	if len(vals) >= 2 {
		cs.Hist = cutHistogram(vals, DefaultBuckets)
	}
	return cs
}

// MergeNDV is the NDV of a column over two disjoint fragments whose NDVs
// are a and b. Their values may overlap, so it is approximate: the
// larger (a lower bound) plus half the smaller, a standard heuristic.
func MergeNDV(a, b int64) int64 { return max(a, b) + min(a, b)/2 }

// Histogram is an equi-depth histogram: Bounds[i] is the upper bound of
// bucket i (inclusive); Counts[i] is the number of values in it.
type Histogram struct {
	Bounds []types.Value
	Counts []int64
	Total  int64
}

// cutHistogram cuts sorted, which is in ascending order, into at most
// buckets runs of equal count (the first len%buckets one longer).
func cutHistogram(sorted []types.Value, buckets int) *Histogram {
	if len(sorted) == 0 || buckets < 1 {
		return nil
	}
	buckets = min(buckets, len(sorted))
	h := &Histogram{Bounds: make([]types.Value, buckets), Counts: make([]int64, buckets), Total: int64(len(sorted))}
	per, rem := len(sorted)/buckets, len(sorted)%buckets
	idx := 0
	for b := range buckets {
		n := per
		if b < rem {
			n++
		}
		idx += n
		h.Bounds[b], h.Counts[b] = sorted[idx-1], int64(n)
	}
	return h
}

// Default selectivities for predicates the estimator cannot analyze.
const (
	DefaultEqSel   = 0.1
	DefaultLikeSel = 0.25
	DefaultSel     = 1.0 / 3.0
)

// Selectivity estimates the fraction of rows satisfying pred over a table
// with the given stats. pred must be bound against the table's schema;
// column references index ts.Columns. The conjuncts that constrain a
// column to constants (expr.ColumnConstraint) are read together, as the
// one expr.ColumnRange of that column, and priced by rangeSel; every
// other conjunct is priced on its own, and the parts multiply.
func Selectivity(pred expr.Expr, ts *TableStats) float64 {
	f, _ := selectivity(pred, pred, ts, 0)
	return f
}

// selectivity prices the conjuncts of e, a part of filter. seen has bit c
// set once column c's range has been priced; a column outside the mask
// is priced conjunct by conjunct.
func selectivity(filter, e expr.Expr, ts *TableStats, seen uint64) (float64, uint64) {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		var l, r float64
		l, seen = selectivity(filter, b.L, ts, seen)
		r, seen = selectivity(filter, b.R, ts, seen)
		return l * r, seen
	}
	col, ok := expr.ColumnConstraint(e)
	if !ok {
		return conjunctSel(e, ts), seen
	}
	c := col.Index
	switch {
	case uint(c) >= 64:
		filter = e
	case seen&(1<<c) != 0:
		return 1, seen
	default:
		seen |= 1 << c
	}
	var buf [16]types.Value
	r, _ := expr.ColumnRangeIn(filter, c, buf[:0])
	return rangeSel(r, columnStats(ts, c)), seen
}

// conjunctSel prices a conjunct that constrains no column to constants.
func conjunctSel(e expr.Expr, ts *TableStats) float64 {
	switch n := e.(type) {
	case nil:
		return 1
	case *expr.Const:
		if n.Val.Kind() == types.KindBool {
			if n.Val.Bool() {
				return 1
			}
			return 0
		}
		return DefaultSel
	case *expr.Binary:
		switch {
		case n.Op == expr.OpOr:
			a, b := Selectivity(n.L, ts), Selectivity(n.R, ts)
			return clamp(a + b - a*b)
		case n.Op == expr.OpLike:
			return DefaultLikeSel
		case n.Op == expr.OpEq:
			return DefaultEqSel
		case n.Op == expr.OpNe:
			if col, _, _, ok := expr.ColumnComparison(n); ok {
				return 1 - eqSel(columnStats(ts, col.Index))
			}
			return 1 - DefaultEqSel
		}
		return DefaultSel
	case *expr.Unary:
		if n.Op == expr.OpNot {
			return clamp(1 - Selectivity(n.E, ts))
		}
		return DefaultSel
	case *expr.IsNull:
		col, ok := n.E.(*expr.ColRef)
		if !ok || ts == nil || col.Index >= len(ts.Columns) || ts.RowCount == 0 {
			return DefaultEqSel
		}
		f := float64(ts.Columns[col.Index].NullCount) / float64(ts.RowCount)
		if n.Negate {
			f = 1 - f
		}
		return clamp(f)
	case *expr.InList:
		if !n.Negate {
			return DefaultSel
		}
		// NOT IN admits what IN does not.
		return clamp(1 - Selectivity(&expr.InList{E: n.E, List: n.List}, ts))
	default:
		return DefaultSel
	}
}

// columnStats returns column c's statistics, zero when there are none.
func columnStats(ts *TableStats, c int) ColumnStats {
	if ts == nil || c < 0 || c >= len(ts.Columns) {
		return ColumnStats{}
	}
	return ts.Columns[c]
}

// rangeSel prices the values r admits of a column: each of its keys, or
// the one value its ends meet at, is one distinct value of the column;
// an interval is the share of values between its ends, and no less than
// one distinct value, as if a constant it names were one of the column's
// values (as an equality's is).
func rangeSel(r expr.Range, cs ColumnStats) float64 {
	if r.Empty() {
		return 0
	}
	switch {
	case r.Keys != nil:
		return clamp(float64(len(r.Keys)) * eqSel(cs))
	case r.Point():
		return clamp(eqSel(cs))
	}
	lo, hi, loOK, hiOK := 0.0, 1.0, true, true
	if !r.Lo.Unbounded {
		lo, loOK = fracBelow(cs, r.Lo.Value)
	}
	if !r.Hi.Unbounded {
		hi, hiOK = fracBelow(cs, r.Hi.Value)
	}
	if !loOK || !hiOK {
		return DefaultSel
	}
	return clamp(max(hi-lo, eqSel(cs)))
}

// eqSel is the share of one distinct value of a column.
func eqSel(cs ColumnStats) float64 {
	if cs.NDV > 0 {
		return 1 / float64(cs.NDV)
	}
	return DefaultEqSel
}

// fracBelow estimates P(col <= v): the histogram's buckets at or below
// v, and the share of the bucket v falls in that within puts below it,
// the bucket running from the bound before (the column's Min, for the
// first) to its own. Without a histogram the column is one bucket, Min
// to Max, of numbers. false when the statistics cannot place v.
func fracBelow(cs ColumnStats, v types.Value) (float64, bool) {
	h := cs.Hist
	if h == nil || h.Total == 0 {
		if !cs.Min.Kind().Numeric() || !cs.Max.Kind().Numeric() || !v.Kind().Numeric() {
			return 0, false
		}
		return within(cs.Min, cs.Max, v), true
	}
	acc, lo := 0.0, cs.Min
	for i, hi := range h.Bounds {
		if v.Compare(hi) >= 0 {
			acc += float64(h.Counts[i])
			lo = hi
			continue
		}
		acc += float64(h.Counts[i]) * within(lo, hi, v)
		break
	}
	return clamp(acc / float64(h.Total)), true
}

// within is the share of the values from lo to hi that are at most v:
// interpolated when all three are numbers, else half.
func within(lo, hi, v types.Value) float64 {
	if !lo.Kind().Numeric() || !hi.Kind().Numeric() || !v.Kind().Numeric() {
		return 0.5
	}
	l, h, x := lo.AsFloat(), hi.AsFloat(), v.AsFloat()
	if h <= l {
		if x >= h {
			return 1
		}
		return 0
	}
	return clamp((x - l) / (h - l))
}

func clamp(f float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Identical reports whether a and b are the same statistics to the bit:
// counts, bounds and histograms, a value as types.Identical compares it.
func Identical(a, b *TableStats) bool {
	return a.RowCount == b.RowCount && slices.EqualFunc(a.Columns, b.Columns, identicalColumn)
}

func identicalColumn(x, y ColumnStats) bool {
	if x.NDV != y.NDV || x.NullCount != y.NullCount || !types.Identical(x.Min, y.Min) ||
		!types.Identical(x.Max, y.Max) || (x.Hist == nil) != (y.Hist == nil) {
		return false
	}
	return x.Hist == nil || x.Hist.Total == y.Hist.Total && slices.Equal(x.Hist.Counts, y.Hist.Counts) &&
		slices.EqualFunc(x.Hist.Bounds, y.Hist.Bounds, types.Identical)
}

// String renders table stats compactly.
func (t *TableStats) String() string {
	if t == nil {
		return "stats{unknown}"
	}
	return fmt.Sprintf("stats{rows=%d, cols=%d}", t.RowCount, len(t.Columns))
}

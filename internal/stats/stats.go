// Package stats implements table and column statistics — row counts,
// distinct-value estimates, min/max, null fractions, and equi-depth
// histograms — plus the selectivity and join-cardinality estimators the
// cost-based optimizer is built on.
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

// Clone deep-copies the stats.
func (t *TableStats) Clone() *TableStats {
	if t == nil {
		return nil
	}
	out := &TableStats{RowCount: t.RowCount, Columns: make([]ColumnStats, len(t.Columns))}
	copy(out.Columns, t.Columns)
	for i := range out.Columns {
		if h := out.Columns[i].Hist; h != nil {
			nh := &Histogram{
				Bounds: append([]types.Value(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Total:  h.Total,
			}
			out.Columns[i].Hist = nh
		}
	}
	return out
}

// Unknown returns placeholder stats for a table of assumed size when no
// statistics have been collected.
func Unknown(columns int, assumedRows int64) *TableStats {
	return &TableStats{RowCount: assumedRows, Columns: make([]ColumnStats, columns)}
}

// Collect computes full statistics from a materialized table scan. Each
// column's non-NULL values are copied into one scratch slice, reused
// from column to column, and sorted once: Min and Max are its ends, NDV
// is the number of runs of Equal values (a NaN, equal to nothing, is a
// run of its own), and the histogram is cut from it.
func Collect(rows []types.Row, width int) *TableStats {
	ts := &TableStats{RowCount: int64(len(rows)), Columns: make([]ColumnStats, width)}
	vals := make([]types.Value, 0, len(rows))
	for c := range ts.Columns {
		cs := &ts.Columns[c]
		vals = vals[:0]
		for _, r := range rows {
			switch {
			case c >= len(r):
			case r[c].IsNull():
				cs.NullCount++
			default:
				vals = append(vals, r[c])
			}
		}
		if len(vals) == 0 {
			continue
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
	}
	return ts
}

// Merge combines statistics of disjoint fragments of the same table
// (horizontal partitions). NDV merging is approximate: it takes the max
// (lower bound) plus half the remainder, a standard heuristic. The
// result copies the first part's Columns, not its histograms: the
// merged columns have none, and the rest are shared, read-only.
func Merge(parts ...*TableStats) *TableStats {
	var out *TableStats
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = &TableStats{RowCount: p.RowCount, Columns: slices.Clone(p.Columns)}
			continue
		}
		out.RowCount += p.RowCount
		for i := range out.Columns {
			if i >= len(p.Columns) {
				break
			}
			a, b := &out.Columns[i], p.Columns[i]
			a.NullCount += b.NullCount
			maxNDV := a.NDV
			minNDV := b.NDV
			if b.NDV > maxNDV {
				maxNDV, minNDV = b.NDV, a.NDV
			}
			a.NDV = maxNDV + minNDV/2
			if a.Min.IsNull() || (!b.Min.IsNull() && b.Min.Compare(a.Min) < 0) {
				a.Min = b.Min
			}
			if a.Max.IsNull() || (!b.Max.IsNull() && b.Max.Compare(a.Max) > 0) {
				a.Max = b.Max
			}
			// Histograms of fragments are not merged (bounds differ);
			// estimation falls back to min/max interpolation.
			a.Hist = nil
		}
	}
	if out == nil {
		return &TableStats{}
	}
	return out
}

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

// FracLE estimates the fraction of values ≤ v.
func (h *Histogram) FracLE(v types.Value) float64 {
	if h == nil || h.Total == 0 {
		return 0.5
	}
	var acc int64
	for i, bound := range h.Bounds {
		if v.Compare(bound) >= 0 {
			acc += h.Counts[i]
			continue
		}
		// v falls inside bucket i: assume half the bucket qualifies.
		acc += h.Counts[i] / 2
		break
	}
	f := float64(acc) / float64(h.Total)
	if f > 1 {
		f = 1
	}
	return f
}

// Default selectivities for predicates the estimator cannot analyze.
const (
	DefaultEqSel    = 0.1
	DefaultRangeSel = 1.0 / 3.0
	DefaultLikeSel  = 0.25
	DefaultSel      = 1.0 / 3.0
)

// Selectivity estimates the fraction of rows satisfying pred over a table
// with the given stats. pred must be bound against the table's schema;
// column references index ts.Columns.
func Selectivity(pred expr.Expr, ts *TableStats) float64 {
	if pred == nil {
		return 1
	}
	switch n := pred.(type) {
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
		case n.Op == expr.OpAnd:
			return clamp(Selectivity(n.L, ts) * Selectivity(n.R, ts))
		case n.Op == expr.OpOr:
			a, b := Selectivity(n.L, ts), Selectivity(n.R, ts)
			return clamp(a + b - a*b)
		case n.Op.Comparison():
			return comparisonSelectivity(n, ts)
		case n.Op == expr.OpLike:
			return DefaultLikeSel
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
		// Each element behaves like an equality; union them.
		per := comparisonSelectivity(&expr.Binary{Op: expr.OpEq, L: n.E, R: expr.NewConst(types.Null)}, ts)
		f := clamp(per * float64(len(n.List)))
		if n.Negate {
			f = 1 - f
		}
		return clamp(f)
	default:
		return DefaultSel
	}
}

func comparisonSelectivity(b *expr.Binary, ts *TableStats) float64 {
	col, op, val, ok := expr.ColumnComparison(b)
	if !ok || ts == nil || col.Index < 0 || col.Index >= len(ts.Columns) {
		if b.Op == expr.OpEq {
			return DefaultEqSel
		}
		return DefaultRangeSel
	}
	cs := &ts.Columns[col.Index]
	switch op {
	case expr.OpEq:
		if cs.NDV > 0 {
			return clamp(1 / float64(cs.NDV))
		}
		return DefaultEqSel
	case expr.OpNe:
		if cs.NDV > 0 {
			return clamp(1 - 1/float64(cs.NDV))
		}
		return 1 - DefaultEqSel
	case expr.OpLe, expr.OpLt:
		return clamp(fracBelow(cs, val))
	case expr.OpGe, expr.OpGt:
		return clamp(1 - fracBelow(cs, val))
	default:
		// Non-comparison operators reach the generic fallback below.
	}
	return DefaultRangeSel
}

// fracBelow estimates P(col <= v) from histogram or min/max interpolation.
func fracBelow(cs *ColumnStats, v types.Value) float64 {
	if cs.Hist != nil {
		return cs.Hist.FracLE(v)
	}
	if cs.Min.IsNull() || cs.Max.IsNull() || !v.Kind().Numeric() ||
		!cs.Min.Kind().Numeric() || !cs.Max.Kind().Numeric() {
		return DefaultRangeSel
	}
	lo, hi, x := cs.Min.AsFloat(), cs.Max.AsFloat(), v.AsFloat()
	if hi <= lo {
		if x >= hi {
			return 1
		}
		return 0
	}
	return clamp((x - lo) / (hi - lo))
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

// String renders table stats compactly.
func (t *TableStats) String() string {
	if t == nil {
		return "stats{unknown}"
	}
	return fmt.Sprintf("stats{rows=%d, cols=%d}", t.RowCount, len(t.Columns))
}

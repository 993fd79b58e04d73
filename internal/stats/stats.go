// Package stats implements table and column statistics — row counts,
// distinct-value estimates, min/max, null fractions, and equi-depth
// histograms — plus the selectivity and join-cardinality estimators the
// cost-based optimizer is built on.
package stats

import (
	"fmt"
	"math"
	"sort"

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

// Collect computes full statistics from a materialized table scan.
func Collect(rows []types.Row, width int) *TableStats {
	ts := &TableStats{RowCount: int64(len(rows)), Columns: make([]ColumnStats, width)}
	for c := 0; c < width; c++ {
		var vals []types.Value
		// The first value seen per hash is kept inline; only values that
		// collide with a different one go to the overflow lists.
		distinct := make(map[uint64]types.Value)
		var collided map[uint64][]types.Value
		cs := &ts.Columns[c]
		for _, r := range rows {
			if c >= len(r) {
				continue
			}
			v := r[c]
			if v.IsNull() {
				cs.NullCount++
				continue
			}
			vals = append(vals, v)
			h := v.Hash(0)
			first, seen := distinct[h]
			switch {
			case !seen:
				distinct[h] = v
				cs.NDV++
			case first.Equal(v):
			case !containsValue(collided[h], v):
				if collided == nil {
					collided = make(map[uint64][]types.Value)
				}
				collided[h] = append(collided[h], v)
				cs.NDV++
			}
			if cs.Min.IsNull() || v.Compare(cs.Min) < 0 {
				cs.Min = v
			}
			if cs.Max.IsNull() || v.Compare(cs.Max) > 0 {
				cs.Max = v
			}
		}
		if len(vals) >= 2 {
			cs.Hist = BuildHistogram(vals, DefaultBuckets)
		}
	}
	return ts
}

func containsValue(vals []types.Value, v types.Value) bool {
	for _, p := range vals {
		if p.Equal(v) {
			return true
		}
	}
	return false
}

// Merge combines statistics of disjoint fragments of the same table
// (horizontal partitions). NDV merging is approximate: it takes the max
// (lower bound) plus half the remainder, a standard heuristic.
func Merge(parts ...*TableStats) *TableStats {
	var out *TableStats
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = p.Clone()
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

// BuildHistogram sorts a copy of vals and cuts it into ≤ buckets
// equal-count runs.
func BuildHistogram(vals []types.Value, buckets int) *Histogram {
	if len(vals) == 0 || buckets < 1 {
		return nil
	}
	sorted := append([]types.Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	h := &Histogram{Total: int64(len(sorted))}
	per := len(sorted) / buckets
	rem := len(sorted) % buckets
	idx := 0
	for b := 0; b < buckets; b++ {
		n := per
		if b < rem {
			n++
		}
		if n == 0 {
			continue
		}
		idx += n
		h.Bounds = append(h.Bounds, sorted[idx-1])
		h.Counts = append(h.Counts, int64(n))
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

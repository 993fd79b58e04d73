package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gis/internal/types"
)

// referenceCollect is Collect as a hash map of distinct values and a
// sorted copy for the histogram: the definition the sort-once collector
// is held to.
func referenceCollect(rows []types.Row, width int) *TableStats {
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
			cs.Hist = referenceHistogram(vals, DefaultBuckets)
		}
	}
	return ts
}

// referenceHistogram sorts a copy of vals and cuts it into ≤ buckets
// equal-count runs.
func referenceHistogram(vals []types.Value, buckets int) *Histogram {
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

func containsValue(vals []types.Value, v types.Value) bool {
	for _, p := range vals {
		if p.Equal(v) {
			return true
		}
	}
	return false
}

// splitZero reports whether a column holds -0.0 beside another zero.
// Value.Equal calls them equal and Value.Hash does not, so the hash map
// counts two distinct values where the runs of the sorted column count
// one: the one place the two definitions of NDV part.
func splitZero(rows []types.Row, c int) bool {
	var neg, other bool
	for _, r := range rows {
		if c >= len(r) || !r[c].Kind().Numeric() || r[c].AsFloat() != 0 {
			continue
		}
		if r[c].Kind() == types.KindFloat && math.Signbit(r[c].Float()) {
			neg = true
		} else {
			other = true
		}
	}
	return neg && other
}

// columnShapes draws one column's value: each shape is a kind of column
// the collector must summarize as the reference does.
var columnShapes = []func(r *rand.Rand) types.Value{
	// Duplicated integers.
	func(r *rand.Rand) types.Value { return types.NewInt(int64(r.Intn(20) - 10)) },
	// Floats with NaN, both zeros and both infinities among them.
	func(r *rand.Rand) types.Value {
		switch r.Intn(8) {
		case 0:
			return types.NewFloat(math.NaN())
		case 1:
			return types.NewFloat(math.Copysign(0, -1))
		case 2:
			return types.NewFloat(0)
		case 3:
			return types.NewFloat(math.Inf(1 - 2*r.Intn(2)))
		}
		return types.NewFloat(float64(r.Intn(40)) / 4)
	},
	// Strings, many repeated.
	func(r *rand.Rand) types.Value {
		return types.NewString(string(rune('a'+r.Intn(6))) + string(rune('a'+r.Intn(3))))
	},
	// INT and FLOAT mixed, every value exact in float64: 3 and 3.0 are
	// one value.
	func(r *rand.Rand) types.Value {
		if r.Intn(2) == 0 {
			return types.NewInt(int64(r.Intn(12)))
		}
		return types.NewFloat(float64(r.Intn(24)) / 2)
	},
	// Kinds that never compare equal: BOOL, INT, STRING.
	func(r *rand.Rand) types.Value {
		switch r.Intn(3) {
		case 0:
			return types.NewBool(r.Intn(2) == 0)
		case 1:
			return types.NewInt(int64(r.Intn(3)))
		}
		return types.NewString("1")
	},
}

// genTable draws a table of mixed column shapes with NULLs, some rows
// shorter than the width.
func genTable(r *rand.Rand) ([]types.Row, int) {
	width := 1 + r.Intn(5)
	shapes := make([]func(*rand.Rand) types.Value, width)
	for i := range shapes {
		shapes[i] = columnShapes[r.Intn(len(columnShapes))]
	}
	nullPct := r.Intn(60)
	rows := make([]types.Row, r.Intn(300))
	for i := range rows {
		n := width
		if r.Intn(10) == 0 {
			n = r.Intn(width)
		}
		row := make(types.Row, n)
		for c := range row {
			if r.Intn(100) < nullPct {
				continue // types.Null
			}
			row[c] = shapes[c](r)
		}
		rows[i] = row
	}
	return rows, width
}

// sameStats reports how got differs from the reference want, "" when it
// does not: counts equal, bounds and histogram bounds comparing equal,
// NDV one lower only on a column splitZero names.
func sameStats(rows []types.Row, got, want *TableStats) string {
	if got.RowCount != want.RowCount || len(got.Columns) != len(want.Columns) {
		return "shape"
	}
	for c := range got.Columns {
		g, w := got.Columns[c], want.Columns[c]
		wantNDV := w.NDV
		if splitZero(rows, c) {
			wantNDV--
		}
		switch {
		case g.NullCount != w.NullCount:
			return "NullCount"
		case g.NDV != wantNDV:
			return "NDV"
		case g.Min.Compare(w.Min) != 0 || g.Min.IsNull() != w.Min.IsNull():
			return "Min"
		case g.Max.Compare(w.Max) != 0 || g.Max.IsNull() != w.Max.IsNull():
			return "Max"
		case (g.Hist == nil) != (w.Hist == nil):
			return "Hist presence"
		case g.Hist == nil:
			continue
		case g.Hist.Total != w.Hist.Total || len(g.Hist.Bounds) != len(w.Hist.Bounds):
			return "Hist shape"
		}
		for i := range g.Hist.Bounds {
			if g.Hist.Counts[i] != w.Hist.Counts[i] || g.Hist.Bounds[i].Compare(w.Hist.Bounds[i]) != 0 {
				return "Hist bucket"
			}
		}
	}
	return ""
}

// TestCollectMatchesReference holds Collect to the hash-map reference on
// generated tables.
func TestCollectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 2000; i++ {
		rows, width := genTable(r)
		want := referenceCollect(rows, width)
		if diff := sameStats(rows, Collect(rows, width), want); diff != "" {
			t.Fatalf("table %d: Collect differs from the reference in %s\nrows: %v", i, diff, rows)
		}
	}
}

// TestCollectCountsZerosOnce: -0.0, 0.0 and 0 are one value, as
// Value.Equal says; each NaN is its own.
func TestCollectCountsZerosOnce(t *testing.T) {
	nan := types.NewFloat(math.NaN())
	rows := []types.Row{
		{types.NewFloat(math.Copysign(0, -1))}, {types.NewFloat(0)}, {types.NewInt(0)},
		{nan}, {nan}, {types.NewInt(1)},
	}
	if got := Collect(rows, 1).Columns[0].NDV; got != 4 {
		t.Errorf("NDV = %d, want 4 (zero, two NaNs, one)", got)
	}
}

// ordersRows are n rows shaped like hetero_local's orders: oid in order,
// cust_id among n/20 customers, amount a multiple of 0.25, region one of
// four.
func ordersRows(n int) []types.Row {
	r := rand.New(rand.NewSource(1))
	regions := []string{"north", "south", "east", "west"}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(r.Intn(n / 20))),
			types.NewFloat(float64(r.Intn(400000)) / 4), types.NewString(regions[r.Intn(4)]),
		}
	}
	return rows
}

var sinkStats *TableStats

// BenchmarkCollect: the statistics of a 20 000-row, four-column orders
// table, as hetero_local's relstore collects them.
func BenchmarkCollect(b *testing.B) {
	rows := ordersRows(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStats = Collect(rows, 4)
	}
}

package stats

import (
	"math"
	"testing"

	"gis/internal/expr"
	"gis/internal/sql"
	"gis/internal/types"
)

// mkRows builds rows of (id INT ascending, cat STRING cycling, val FLOAT).
func mkRows(n int) []types.Row {
	cats := []string{"a", "b", "c", "d"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(cats[i%len(cats)]),
			types.NewFloat(float64(i) / 2),
		}
	}
	return rows
}

var statSchema = types.NewSchema(
	types.Column{Name: "id", Type: types.KindInt},
	types.Column{Name: "cat", Type: types.KindString},
	types.Column{Name: "val", Type: types.KindFloat},
)

func bindPred(t *testing.T, e expr.Expr) expr.Expr {
	t.Helper()
	b, err := expr.Bind(e, statSchema)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCollectBasics(t *testing.T) {
	ts := Collect(mkRows(100), 3)
	if ts.RowCount != 100 {
		t.Errorf("RowCount = %d", ts.RowCount)
	}
	if ts.Columns[0].NDV != 100 {
		t.Errorf("id NDV = %d, want 100", ts.Columns[0].NDV)
	}
	if ts.Columns[1].NDV != 4 {
		t.Errorf("cat NDV = %d, want 4", ts.Columns[1].NDV)
	}
	if ts.Columns[0].Min.Int() != 0 || ts.Columns[0].Max.Int() != 99 {
		t.Errorf("id range = %v..%v", ts.Columns[0].Min, ts.Columns[0].Max)
	}
	if ts.Columns[0].Hist == nil {
		t.Error("histogram missing")
	}
}

func TestCollectNulls(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(1)}, {types.Null}, {types.Null},
	}
	ts := Collect(rows, 1)
	if ts.Columns[0].NullCount != 2 || ts.Columns[0].NDV != 1 {
		t.Errorf("stats = %+v", ts.Columns[0])
	}
}

func TestHistogramFracLE(t *testing.T) {
	vals := make([]types.Value, 1000)
	for i := range vals {
		vals[i] = types.NewInt(int64(i))
	}
	h := cutHistogram(vals, 10)
	if h.Total != 1000 || len(h.Bounds) != 10 {
		t.Fatalf("hist = %+v", h)
	}
	cs := ColumnStats{Min: vals[0], Max: vals[len(vals)-1], Hist: h}
	cases := []struct {
		v    int64
		want float64
		tol  float64
	}{
		{-5, 0, 0.06},
		{499, 0.5, 0.06},
		{999, 1.0, 0.001},
		{5000, 1.0, 0.001},
	}
	for _, c := range cases {
		got, ok := fracBelow(cs, types.NewInt(c.v))
		if !ok || math.Abs(got-c.want) > c.tol {
			t.Errorf("fracBelow(%d) = %v, %v, want ~%v", c.v, got, ok, c.want)
		}
	}
}

func TestBuildHistogramEdge(t *testing.T) {
	if cutHistogram(nil, 8) != nil {
		t.Error("empty histogram must be nil")
	}
	h := cutHistogram([]types.Value{types.NewInt(5)}, 8)
	if h == nil || h.Total != 1 || len(h.Bounds) != 1 {
		t.Errorf("singleton hist = %+v", h)
	}
}

func TestSelectivityEquality(t *testing.T) {
	ts := Collect(mkRows(100), 3)
	p := bindPred(t, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a"))))
	got := Selectivity(p, ts)
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("eq selectivity = %v, want 0.25 (1/NDV)", got)
	}
	// Commuted const = col.
	p = bindPred(t, expr.NewBinary(expr.OpEq, expr.NewConst(types.NewString("a")), expr.NewColRef("", "cat")))
	if got := Selectivity(p, ts); math.Abs(got-0.25) > 0.01 {
		t.Errorf("commuted eq selectivity = %v", got)
	}
}

// TestSelectivityRange prices what a filter admits of a column, read
// through expr.ColumnRange, against the share of rows that pass: ids
// 0..n-1, and a table with no statistics.
func TestSelectivityRange(t *testing.T) {
	collected := map[int]*TableStats{100: Collect(mkRows(100), 3), 1000: Collect(mkRows(1000), 3)}
	for _, c := range []struct {
		filter string
		rows   int // 0: no statistics of 1000 rows
		want   float64
		tol    float64
	}{
		{"id < 25", 100, 0.25, 0.06},
		{"id >= 75", 100, 0.25, 0.06},
		{"id BETWEEN 100 AND 130", 1000, 0.031, 0.01},
		{"id >= 100 AND id < 200", 1000, 0.100, 0.01},
		{"id > 500 AND id < 100", 1000, 0, 0},
		{"id > NULL", 1000, 0, 0},
		{"id IN (3, 3, 17, 4.0, NULL)", 1000, 3.0 / 1000, 0},
		{"id >= 100 AND id < 110", 1000, 0.010, 0.002},
		{"id = 7 AND id IN (7, 8)", 1000, 1.0 / 1000, 0},
		{"id >= 100 AND id < 200", 0, DefaultSel, 0},
	} {
		ts := collected[c.rows]
		if c.rows == 0 {
			ts = &TableStats{RowCount: 1000, Columns: make([]ColumnStats, 3)}
		}
		e, err := sql.ParseExpr(c.filter)
		if err != nil {
			t.Fatal(err)
		}
		if got := Selectivity(bindPred(t, e), ts); math.Abs(got-c.want) > c.tol || (c.want > 0) != (got > 0) {
			t.Errorf("%s over %s: selectivity %v, want %v ± %v", c.filter, ts, got, c.want, c.tol)
		}
	}
}

// TestSelectivityAllocatesNothing: pricing a conjunction of comparisons
// folds each column's range in place.
func TestSelectivityAllocatesNothing(t *testing.T) {
	ts := Collect(mkRows(1000), 3)
	e, err := sql.ParseExpr("id >= 100 AND cat = 'a' AND id < 200 AND val > 3.5 AND id <> 150")
	if err != nil {
		t.Fatal(err)
	}
	pred := bindPred(t, e)
	if got := testing.AllocsPerRun(100, func() { Selectivity(pred, ts) }); got != 0 {
		t.Errorf("Selectivity(%s) allocates %v objects", pred, got)
	}
}

func TestSelectivityConjunctionDisjunction(t *testing.T) {
	ts := Collect(mkRows(100), 3)
	a := expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(50)))
	b := expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a")))
	and := bindPred(t, expr.NewBinary(expr.OpAnd, a, b))
	or := bindPred(t, expr.NewBinary(expr.OpOr, a, b))
	sAnd, sOr := Selectivity(and, ts), Selectivity(or, ts)
	if math.Abs(sAnd-0.125) > 0.03 {
		t.Errorf("AND selectivity = %v, want ~0.125", sAnd)
	}
	if math.Abs(sOr-(0.5+0.25-0.125)) > 0.05 {
		t.Errorf("OR selectivity = %v, want ~0.625", sOr)
	}
	if sAnd > sOr {
		t.Error("AND must be more selective than OR")
	}
}

func TestSelectivityNotAndNull(t *testing.T) {
	rows := mkRows(100)
	// Make 20 nulls in val.
	for i := 0; i < 20; i++ {
		rows[i][2] = types.Null
	}
	ts := Collect(rows, 3)
	isn := bindPred(t, &expr.IsNull{E: expr.NewColRef("", "val")})
	if got := Selectivity(isn, ts); math.Abs(got-0.2) > 0.01 {
		t.Errorf("IS NULL = %v, want 0.2", got)
	}
	notNull := bindPred(t, &expr.IsNull{E: expr.NewColRef("", "val"), Negate: true})
	if got := Selectivity(notNull, ts); math.Abs(got-0.8) > 0.01 {
		t.Errorf("IS NOT NULL = %v, want 0.8", got)
	}
	not := bindPred(t, expr.NewUnary(expr.OpNot,
		expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(50)))))
	if got := Selectivity(not, ts); math.Abs(got-0.5) > 0.06 {
		t.Errorf("NOT range = %v, want ~0.5", got)
	}
}

func TestSelectivityInList(t *testing.T) {
	ts := Collect(mkRows(100), 3)
	in := bindPred(t, &expr.InList{
		E:    expr.NewColRef("", "cat"),
		List: []expr.Expr{expr.NewConst(types.NewString("a")), expr.NewConst(types.NewString("b"))},
	})
	if got := Selectivity(in, ts); math.Abs(got-0.5) > 0.05 {
		t.Errorf("IN(2 of 4) = %v, want ~0.5", got)
	}
}

func TestSelectivityBounds(t *testing.T) {
	ts := Collect(mkRows(10), 3)
	preds := []expr.Expr{
		bindPred(t, expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(-100)))),
		bindPred(t, expr.NewBinary(expr.OpGt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(1000)))),
		bindPred(t, expr.NewConst(types.NewBool(true))),
		bindPred(t, expr.NewConst(types.NewBool(false))),
		nil,
	}
	for _, p := range preds {
		s := Selectivity(p, ts)
		if s < 0 || s > 1 {
			t.Errorf("selectivity out of bounds: %v for %v", s, p)
		}
	}
	if Selectivity(nil, ts) != 1 {
		t.Error("nil predicate must have selectivity 1")
	}
	if Selectivity(bindPred(t, expr.NewConst(types.NewBool(false))), ts) != 0 {
		t.Error("FALSE must have selectivity 0")
	}
}

func TestSelectivityUnknownStats(t *testing.T) {
	p := bindPred(t, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a"))))
	s := Selectivity(p, &TableStats{RowCount: 1000, Columns: make([]ColumnStats, 3)})
	if s != DefaultEqSel {
		t.Errorf("unknown eq = %v, want default %v", s, DefaultEqSel)
	}
	if s := Selectivity(p, nil); s <= 0 || s > 1 {
		t.Errorf("nil stats selectivity = %v", s)
	}
}

// TestMergeFragments: two fragments' distinct values may overlap, so a
// column over both holds the larger NDV and half the smaller.
func TestMergeFragments(t *testing.T) {
	a := Collect(mkRows(50), 3)
	b := Collect(mkRows(50), 3)
	// NDV heuristic: max + min/2 = 50 + 25 = 75 for id.
	if got := MergeNDV(a.Columns[0].NDV, b.Columns[0].NDV); got != 75 {
		t.Errorf("merged NDV = %d, want 75", got)
	}
	if MergeNDV(0, 50) != 50 || MergeNDV(10, 50) != MergeNDV(50, 10) {
		t.Error("MergeNDV degenerate cases broken")
	}
}

// TestSelectivityWideTable: a column past the 64 a filter's walk keeps
// track of is priced conjunct by conjunct, not skipped.
func TestSelectivityWideTable(t *testing.T) {
	const width, col = 70, 66
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = make(types.Row, width)
		rows[i][col] = types.NewInt(int64(i))
	}
	ts := Collect(rows, width)
	c := expr.NewBoundColRef(col, types.KindInt, "c")
	eq := expr.NewBinary(expr.OpEq, c, expr.NewConst(types.NewInt(5)))
	if got := Selectivity(eq, ts); got != 0.01 {
		t.Errorf("c = 5: %v, want 0.01", got)
	}
	between := expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGe, c, expr.NewConst(types.NewInt(10))),
		expr.NewBinary(expr.OpLt, c, expr.NewConst(types.NewInt(20))))
	if got := Selectivity(between, ts); got <= 0 || got > 0.25 {
		t.Errorf("c >= 10 AND c < 20: %v, want in (0, 0.25]", got)
	}
}

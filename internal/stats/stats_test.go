package stats

import (
	"math"
	"testing"

	"gis/internal/expr"
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
		got := h.FracLE(types.NewInt(c.v))
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("FracLE(%d) = %v, want ~%v", c.v, got, c.want)
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

func TestSelectivityRange(t *testing.T) {
	ts := Collect(mkRows(100), 3)
	p := bindPred(t, expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(25))))
	got := Selectivity(p, ts)
	if math.Abs(got-0.25) > 0.06 {
		t.Errorf("range selectivity = %v, want ~0.25", got)
	}
	p = bindPred(t, expr.NewBinary(expr.OpGe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(75))))
	got = Selectivity(p, ts)
	if math.Abs(got-0.25) > 0.06 {
		t.Errorf("range selectivity = %v, want ~0.25", got)
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
	s := Selectivity(p, Unknown(3, 1000))
	if s != DefaultEqSel {
		t.Errorf("unknown eq = %v, want default %v", s, DefaultEqSel)
	}
	if s := Selectivity(p, nil); s <= 0 || s > 1 {
		t.Errorf("nil stats selectivity = %v", s)
	}
}

func TestMergeFragments(t *testing.T) {
	a := Collect(mkRows(50), 3)
	b := Collect(mkRows(50), 3)
	m := Merge(a, b)
	if m.RowCount != 100 {
		t.Errorf("merged rows = %d", m.RowCount)
	}
	// NDV heuristic: max + min/2 = 50 + 25 = 75 for id.
	if m.Columns[0].NDV != 75 {
		t.Errorf("merged NDV = %d, want 75", m.Columns[0].NDV)
	}
	if m.Columns[0].Min.Int() != 0 || m.Columns[0].Max.Int() != 49 {
		t.Errorf("merged range = %v..%v", m.Columns[0].Min, m.Columns[0].Max)
	}
	if Merge(nil, a) == nil || Merge().RowCount != 0 {
		t.Error("merge degenerate cases broken")
	}
	// Merge must not mutate inputs.
	if a.RowCount != 50 {
		t.Error("Merge mutated input")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Collect(mkRows(10), 3)
	c := a.Clone()
	c.RowCount = 999
	c.Columns[0].NDV = 1
	if a.RowCount != 10 || a.Columns[0].NDV != 10 {
		t.Error("Clone shares state")
	}
	var nilStats *TableStats
	if nilStats.Clone() != nil {
		t.Error("nil Clone must be nil")
	}
}

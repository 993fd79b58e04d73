package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
)

// The global columns of mappedAggEngine's tables.
const (
	mK      = iota // identity
	mRegion        // value map: two codes stand for "north", "X" passes through
	mUsd           // x·0.01 + 3, NULL on a seventh of the rows and all of region "X"'s
	mNeg           // y·-2 + 1: MIN and MAX swap at the source
	mSite          // the fragment's constant
	mNf            // remote INT read as FLOAT
)

// mappedAggEngine holds one remote table t, rows k = 0…99, on two
// relstores: a1 holds k < 50, a2 the rest. Global table g maps both
// fragments every way an aggregate can meet (the constants above); g1
// maps a1's alone. It returns the engine and the rows of g as the
// mapping defines them, per fragment.
func mappedAggEngine(t *testing.T) (*Engine, [2][]types.Row) {
	t.Helper()
	remote := types.NewSchema(
		types.Column{Name: "k", Type: types.KindInt},
		types.Column{Name: "code", Type: types.KindString, Nullable: true},
		types.Column{Name: "x", Type: types.KindFloat, Nullable: true},
		types.Column{Name: "y", Type: types.KindFloat},
		types.Column{Name: "n", Type: types.KindInt},
	)
	global := types.NewSchema(
		types.Column{Name: "k", Type: types.KindInt},
		types.Column{Name: "region", Type: types.KindString, Nullable: true},
		types.Column{Name: "usd", Type: types.KindFloat, Nullable: true},
		types.Column{Name: "neg", Type: types.KindFloat},
		types.Column{Name: "site", Type: types.KindString},
		types.Column{Name: "nf", Type: types.KindFloat},
	)
	codes := map[string]string{"N": "north", "S": "south", "n": "north"}
	var want [2][]types.Row
	e := New()
	cat := e.Catalog()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(cat.DefineTable("g", global))
	check(cat.DefineTable("g1", global))
	for f, name := range []string{"a1", "a2"} {
		st := relstore.New(name)
		check(st.CreateTable("t", remote, 0))
		var rows []types.Row
		for k := f * 50; k < (f+1)*50; k++ {
			code := []types.Value{types.NewString("N"), types.NewString("S"), types.NewString("n"), types.NewString("X"), types.Null}[k%5]
			x := types.NewFloat(float64(k*37%101) + 0.75)
			if k%7 == 0 || k%5 == 3 {
				x = types.Null
			}
			y := types.NewFloat(float64(k%13) + 0.25)
			rows = append(rows, types.Row{types.NewInt(int64(k)), code, x, y, types.NewInt(int64(k * 3))})
			region := code
			if g, ok := codes[code.Str()]; ok && !code.IsNull() {
				region = types.NewString(g)
			}
			usd := x
			if !x.IsNull() {
				usd = types.NewFloat(x.Float()*0.01 + 3)
			}
			want[f] = append(want[f], types.Row{types.NewInt(int64(k)), region, usd,
				types.NewFloat(y.Float()*-2 + 1), types.NewString(name), types.NewFloat(float64(k * 3))})
		}
		mustInsert(t, st, "t", rows)
		check(cat.AddSource(st))
		where, err := sql.ParseExpr(fmt.Sprintf("k >= %d AND k < %d", f*50, (f+1)*50))
		check(err)
		site := types.NewString(name)
		cols := func() []catalog.ColumnMapping {
			return []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1, ValueMap: codes},
				{RemoteCol: 2, Scale: 0.01, Offset: 3}, {RemoteCol: 3, Scale: -2, Offset: 1},
				{RemoteCol: -1, Const: &site}, {RemoteCol: 4}}
		}
		check(cat.MapFragment(ctx, "g", &catalog.Fragment{Source: name, RemoteTable: "t", Columns: cols(), Where: where}))
		if f == 0 {
			check(cat.MapFragment(ctx, "g1", &catalog.Fragment{Source: name, RemoteTable: "t", Columns: cols()}))
		}
	}
	check(e.Analyze(ctx))
	return e, want
}

// TestFragmentsWithOtherConstantsSplitAlone: g's two fragments differ
// only in their site constant, so they do not map alike, and each splits
// a filter on site for itself — the one whose constant it names drops
// the conjunct, the other is not asked — where a plan that gave the
// second the first's translation would scan it unfiltered.
func TestFragmentsWithOtherConstantsSplitAlone(t *testing.T) {
	e, rows := mappedAggEngine(t)
	tab, err := e.Catalog().Table("g")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Fragments[0].MapsLike(tab.Fragments[1]) {
		t.Error("fragments with different constants map alike")
	}
	for f, site := range []string{"a1", "a2"} {
		q := "SELECT k, usd, site FROM g WHERE site = '" + site + "'"
		explain, err := e.Explain(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(explain, "FragScan ") != 1 || !strings.Contains(explain, "FragScan "+site+".t [scan t cols") {
			t.Errorf("%s: want the one fragment scanned, without the filter:\n%s", site, explain)
		}
		res, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]types.Row, len(rows[f]))
		for i, r := range rows[f] {
			want[i] = types.Row{r[mK], r[mUsd], r[mSite]}
		}
		if err := sameRows(res.Rows, want); err != nil {
			t.Errorf("%s: %v", site, err)
		}
	}
}

// TestAggregateThroughMapping runs each trap of aggregating through a
// column mapping three ways — pushed to the sources, with
// PushAggregates off, and as source.ApplyResidual folds the rows the
// mapping defines — and holds the plan to what it pushes.
//
// Pushed, an affine SUM is Scale·Σx + Offset·n where the mediator adds
// Σ(Scale·x + Offset): the two round differently, in the last bits of
// the sum. Over these same-signed terms they agree to a relative 1e-12.
func TestAggregateThroughMapping(t *testing.T) {
	e, rows := mappedAggEngine(t)
	all := slices.Concat(rows[0], rows[1])
	star := source.AggSpec{Kind: expr.AggCount, Col: -1, Star: true}
	of := func(k expr.AggKind, col int) source.AggSpec { return source.AggSpec{Kind: k, Col: col} }
	for _, c := range []struct {
		name, sql string
		rows      []types.Row // the table's rows, as the mapping defines them
		groupBy   []int
		aggs      []source.AggSpec
		pushed    bool
	}{
		{"a negative scale swaps MIN and MAX", "SELECT MIN(neg), MAX(neg), SUM(neg), AVG(neg), COUNT(neg) FROM g1",
			rows[0], nil, []source.AggSpec{of(expr.AggMin, mNeg), of(expr.AggMax, mNeg), of(expr.AggSum, mNeg), of(expr.AggAvg, mNeg), of(expr.AggCount, mNeg)}, true},
		{"a negative scale over two fragments", "SELECT MIN(neg), MAX(neg), SUM(neg), AVG(neg) FROM g",
			all, nil, []source.AggSpec{of(expr.AggMin, mNeg), of(expr.AggMax, mNeg), of(expr.AggSum, mNeg), of(expr.AggAvg, mNeg)}, true},
		{"an offset counts the values, not the rows, and an all-NULL group stays NULL; two codes are one region",
			"SELECT region, COUNT(*), COUNT(usd), SUM(usd), AVG(usd), MIN(usd), MAX(usd) FROM g1 GROUP BY region",
			rows[0], []int{mRegion}, []source.AggSpec{star, of(expr.AggCount, mUsd), of(expr.AggSum, mUsd), of(expr.AggAvg, mUsd), of(expr.AggMin, mUsd), of(expr.AggMax, mUsd)}, true},
		{"an identity key over one fragment is the scan's answer", "SELECT k, SUM(usd), MIN(neg), AVG(usd) FROM g1 WHERE k < 20 GROUP BY k",
			rows[0][:20], []int{mK}, []source.AggSpec{of(expr.AggSum, mUsd), of(expr.AggMin, mNeg), of(expr.AggAvg, mUsd)}, true},
		{"a constant key over two fragments with different constants", "SELECT site, region, COUNT(*), SUM(usd), AVG(neg) FROM g GROUP BY site, region",
			all, []int{mSite, mRegion}, []source.AggSpec{star, of(expr.AggSum, mUsd), of(expr.AggAvg, mNeg)}, true},
		{"a retyped INT argument stays", "SELECT SUM(nf) FROM g1",
			rows[0], nil, []source.AggSpec{of(expr.AggSum, mNf)}, false},
		{"MIN over a value map stays", "SELECT MIN(region) FROM g1",
			rows[0], nil, []source.AggSpec{of(expr.AggMin, mRegion)}, false},
		{"DISTINCT stays", "SELECT COUNT(DISTINCT usd) FROM g1",
			rows[0], nil, []source.AggSpec{{Kind: expr.AggCount, Col: mUsd, Distinct: true}}, false},
		{"keys that are all constants stay", "SELECT site, COUNT(*) FROM g GROUP BY site",
			all, []int{mSite}, []source.AggSpec{star}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := source.ApplyResidual(c.rows, &source.Query{GroupBy: c.groupBy, Aggs: c.aggs, Limit: -1})
			if err != nil {
				t.Fatal(err)
			}
			explain, err := e.Explain(ctx, c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if pushed := strings.Contains(explain, " aggs["); pushed != c.pushed {
				t.Errorf("pushed = %v, want %v:\n%s", pushed, c.pushed, explain)
			}
			on, err := e.Query(ctx, c.sql)
			if err != nil {
				t.Fatal(err)
			}
			e.PlanOptions().PushAggregates = false
			off, err := e.Query(ctx, c.sql)
			e.PlanOptions().PushAggregates = true
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(on.Rows, want); err != nil {
				t.Errorf("pushed against the reference fold: %v\n%s", err, explain)
			}
			if err := sameRows(off.Rows, want); err != nil {
				t.Errorf("PushAggregates=off against the reference fold: %v", err)
			}
		})
	}
}

// sameRows compares two results as multisets, floats to a relative
// 1e-12.
func sameRows(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d: %v, want %v", len(got), len(want), got, want)
	}
	left := slices.Clone(want)
	for _, g := range got {
		i := slices.IndexFunc(left, func(w types.Row) bool { return closeRows(g, w) })
		if i < 0 {
			return fmt.Errorf("row %v is not among %v", g, left)
		}
		left = slices.Delete(left, i, i+1)
	}
	return nil
}

func closeRows(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() == types.KindFloat && b[i].Kind() == types.KindFloat {
			x, y := a[i].Float(), b[i].Float()
			if math.Abs(x-y) > 1e-12*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				return false
			}
		} else if !types.Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

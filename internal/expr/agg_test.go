package expr

import (
	"testing"

	"gis/internal/types"
)

func feed(t *testing.T, a Accumulator, vals ...types.Value) {
	t.Helper()
	for _, v := range vals {
		if err := a.Add(v); err != nil {
			t.Fatalf("Add(%v): %v", v, err)
		}
	}
}

func TestCountAccumulator(t *testing.T) {
	a := NewAccumulator(AggCount, false, false)
	feed(t, a, types.NewInt(1), types.Null, types.NewInt(3))
	if got := a.Result().Int(); got != 2 {
		t.Errorf("COUNT(col) = %d, want 2 (NULLs skipped)", got)
	}
	star := NewAccumulator(AggCount, true, false)
	feed(t, star, types.NewInt(1), types.Null, types.NewInt(3))
	if got := star.Result().Int(); got != 3 {
		t.Errorf("COUNT(*) = %d, want 3", got)
	}
}

func TestSumAccumulator(t *testing.T) {
	a := NewAccumulator(AggSum, false, false)
	if !a.Result().IsNull() {
		t.Error("SUM of empty input must be NULL")
	}
	feed(t, a, types.NewInt(1), types.NewInt(2), types.Null)
	if got := a.Result(); got.Kind() != types.KindInt || got.Int() != 3 {
		t.Errorf("SUM = %v", got)
	}
	// Int→float promotion mid-stream.
	feed(t, a, types.NewFloat(0.5))
	if got := a.Result(); got.Kind() != types.KindFloat || got.Float() != 3.5 {
		t.Errorf("SUM promoted = %v", got)
	}
	if err := a.Add(types.NewString("x")); err == nil {
		t.Error("SUM over string must error")
	}
}

func TestAvgAccumulator(t *testing.T) {
	a := NewAccumulator(AggAvg, false, false)
	if !a.Result().IsNull() {
		t.Error("AVG of empty input must be NULL")
	}
	feed(t, a, types.NewInt(1), types.NewInt(2), types.Null, types.NewInt(3))
	if got := a.Result().Float(); got != 2.0 {
		t.Errorf("AVG = %v", got)
	}
}

func TestMinMaxAccumulator(t *testing.T) {
	mn := NewAccumulator(AggMin, false, false)
	mx := NewAccumulator(AggMax, false, false)
	for _, v := range []types.Value{types.NewInt(5), types.Null, types.NewInt(2), types.NewInt(8)} {
		mn.Add(v)
		mx.Add(v)
	}
	if mn.Result().Int() != 2 || mx.Result().Int() != 8 {
		t.Errorf("MIN/MAX = %v/%v", mn.Result(), mx.Result())
	}
	s := NewAccumulator(AggMin, false, false)
	feed(t, s, types.NewString("banana"), types.NewString("apple"))
	if s.Result().Str() != "apple" {
		t.Errorf("MIN strings = %v", s.Result())
	}
}

func TestDistinctAccumulator(t *testing.T) {
	a := NewAccumulator(AggCount, false, true)
	feed(t, a, types.NewInt(1), types.NewInt(1), types.NewInt(2), types.Null, types.NewInt(2))
	if got := a.Result().Int(); got != 2 {
		t.Errorf("COUNT(DISTINCT) = %d, want 2", got)
	}
	s := NewAccumulator(AggSum, false, true)
	feed(t, s, types.NewInt(3), types.NewInt(3), types.NewInt(4))
	if got := s.Result().Int(); got != 7 {
		t.Errorf("SUM(DISTINCT) = %d, want 7", got)
	}
}

func TestAggKindFromName(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "SUM": AggSum, "Min": AggMin, "max": AggMax, "avg": AggAvg,
	} {
		got, ok := AggKindFromName(name)
		if !ok || got != want {
			t.Errorf("AggKindFromName(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := AggKindFromName("median"); ok {
		t.Error("unknown aggregate accepted")
	}
}

func TestAggResultType(t *testing.T) {
	cases := []struct {
		k    AggKind
		in   types.Kind
		want types.Kind
	}{
		{AggCount, types.KindString, types.KindInt},
		{AggAvg, types.KindInt, types.KindFloat},
		{AggSum, types.KindInt, types.KindInt},
		{AggSum, types.KindFloat, types.KindFloat},
		{AggMin, types.KindString, types.KindString},
		{AggMax, types.KindTime, types.KindTime},
	}
	for _, c := range cases {
		if got := AggResultType(c.k, c.in); got != c.want {
			t.Errorf("AggResultType(%s,%s) = %s, want %s", c.k, c.in, got, c.want)
		}
	}
}

func TestGroupTable(t *testing.T) {
	sum := []AccSpec{{Kind: AggCount, Star: true}, {Kind: AggSum}}
	gt := NewGroupTable(1, sum)
	key := make(types.Row, 1) // reused, as callers do
	for _, in := range []struct {
		k types.Value
		v int64
	}{{types.NewString("b"), 1}, {types.Null, 2}, {types.NewString("a"), 3}, {types.NewString("b"), 4}, {types.Null, 5}} {
		key[0] = in.k
		for _, acc := range gt.Group(key) {
			feed(t, acc, types.NewInt(in.v))
		}
	}
	rows := gt.Rows()
	want := []string{"(b, 2, 5)", "(NULL, 2, 7)", "(a, 1, 3)"} // first-seen order, NULL keys one group
	if gt.Len() != len(want) || len(rows) != len(want) {
		t.Fatalf("%d groups, %d rows, want %d", gt.Len(), len(rows), len(want))
	}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Errorf("row %d = %v, want %s", i, r, want[i])
		}
	}

	// A global aggregation over no input is one row of empty-input
	// results; a keyed one, or one with keys and no aggregates, is none.
	if rows := NewGroupTable(0, sum).Rows(); len(rows) != 1 || rows[0].String() != "(0, NULL)" {
		t.Errorf("global over no input = %v", rows)
	}
	if rows := NewGroupTable(1, sum).Rows(); len(rows) != 0 {
		t.Errorf("keyed over no input = %v", rows)
	}
	distinct := NewGroupTable(1, nil)
	for _, k := range []string{"x", "y", "x"} {
		key[0] = types.NewString(k)
		distinct.Group(key)
	}
	if rows := distinct.Rows(); len(rows) != 2 || rows[0].String() != "(x)" || rows[1].String() != "(y)" {
		t.Errorf("keys with no aggregates = %v", rows)
	}
}

package expr

import (
	"math/bits"
	"testing"

	"gis/internal/types"
)

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
		g := gt.Group(key)
		for j := range sum {
			if err := gt.Fold(g, j, types.NewInt(in.v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if gt.Len() != 3 {
		t.Fatalf("%d groups, want 3", gt.Len())
	}
	rows := gt.Rows()
	want := []string{"(b, 2, 5)", "(NULL, 2, 7)", "(a, 1, 3)"} // first-seen order, NULL keys one group
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Errorf("row %d = %v, want %s", i, r, want[i])
		}
	}

	// A global aggregation over no input is one row of empty-input
	// results; a keyed one, or one with keys and no aggregates, is none.
	empty := []AccSpec{{Kind: AggCount, Star: true}, {Kind: AggSum}, {Kind: AggMin}, {Kind: AggAvg, Distinct: true}}
	global := NewGroupTable(0, empty)
	if rows := global.Rows(); len(rows) != 1 || rows[0].String() != "(0, NULL, NULL, NULL)" {
		t.Errorf("global over no input = %v", rows)
	}
	keyed := NewGroupTable(1, sum)
	if rows := keyed.Rows(); len(rows) != 0 {
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

	// Each kind, through Fold.
	i, f, s, null := types.NewInt, types.NewFloat, types.NewString, types.Null
	for _, c := range []struct {
		name string
		spec AccSpec
		in   []types.Value
		want types.Value
		err  string
	}{
		{"COUNT(col) skips NULL", AccSpec{Kind: AggCount}, []types.Value{i(1), null, i(3)}, i(2), ""},
		{"COUNT(*) counts NULL", AccSpec{Kind: AggCount, Star: true}, []types.Value{i(1), null, i(3)}, i(3), ""},
		{"SUM of nothing", AccSpec{Kind: AggSum}, nil, null, ""},
		{"SUM of INTs", AccSpec{Kind: AggSum}, []types.Value{i(1), i(2), null}, i(3), ""},
		{"SUM promotes", AccSpec{Kind: AggSum}, []types.Value{i(1), i(2), null, f(0.5), i(1)}, f(4.5), ""},
		{"SUM over STRING", AccSpec{Kind: AggSum}, []types.Value{i(1), s("x")}, null, "SUM over non-numeric value STRING"},
		{"AVG over STRING", AccSpec{Kind: AggAvg}, []types.Value{s("x")}, null, "AVG over non-numeric value STRING"},
		{"AVG", AccSpec{Kind: AggAvg}, []types.Value{i(1), i(2), null, i(3)}, f(2), ""},
		{"AVG of all NULL", AccSpec{Kind: AggAvg}, []types.Value{null, null}, null, ""},
		{"MIN INTs", AccSpec{Kind: AggMin}, []types.Value{i(5), null, i(2), i(8)}, i(2), ""},
		{"MAX INTs", AccSpec{Kind: AggMax}, []types.Value{i(5), null, i(2), i(8)}, i(8), ""},
		{"MIN strings", AccSpec{Kind: AggMin}, []types.Value{null, s("banana"), null, s("apple"), s("cherry")}, s("apple"), ""},
		{"MAX strings", AccSpec{Kind: AggMax}, []types.Value{null, s("banana"), null, s("apple"), s("cherry")}, s("cherry"), ""},
		{"MIN of all NULL", AccSpec{Kind: AggMin}, []types.Value{null}, null, ""},
		{"COUNT(DISTINCT)", AccSpec{Kind: AggCount, Distinct: true}, []types.Value{i(1), i(1), i(2), null, i(2)}, i(2), ""},
		{"SUM(DISTINCT)", AccSpec{Kind: AggSum, Distinct: true}, []types.Value{i(3), i(3), i(4), null}, i(7), ""},
		{"AVG(DISTINCT)", AccSpec{Kind: AggAvg, Distinct: true}, []types.Value{i(3), i(3), i(6)}, f(4.5), ""},
	} {
		t.Run(c.name, func(t *testing.T) { foldEach(t, c.spec, c.in, c.want, c.err) })
	}
}

// foldEach folds in through Fold into the one group of a table without
// keys, and into both groups of a keyed table that takes every input
// into each, so that one group's state is seen not to leak into the
// other's. Each group must end at want, or the fold fail with wantErr.
func foldEach(t *testing.T, spec AccSpec, in []types.Value, want types.Value, wantErr string) {
	for keyWidth := range 2 {
		gt := NewGroupTable(keyWidth, []AccSpec{spec})
		groups := []int{0} // the one group of a table without keys
		if keyWidth == 1 {
			groups = []int{gt.Group(types.Row{types.NewString("a")}), gt.Group(types.Row{types.NewString("b")})}
		}
		var err error
		for _, v := range in {
			for _, g := range groups {
				if err == nil {
					err = gt.Fold(g, 0, v)
				}
			}
		}
		switch {
		case wantErr != "":
			if err == nil || err.Error() != wantErr {
				t.Errorf("%d keys: error %v, want %q", keyWidth, err, wantErr)
			}
		case err != nil:
			t.Errorf("%d keys: %v", keyWidth, err)
		default:
			for _, r := range gt.Rows() {
				if got := r[keyWidth]; !types.Identical(got, want) {
					t.Errorf("%d keys: %v %v, want %v %v", keyWidth, got.Kind(), got, want.Kind(), want)
				}
			}
		}
	}
}

// TestGroupTableAllocations holds a grouping to allocations that grow
// with the logarithm of its groups: the values, the hash chain and
// AVG's counts regrow by doubling, and nothing is allocated a group. A
// table without keys and without AVG or DISTINCT allocates its one row
// and the header Rows returns.
func TestGroupTableAllocations(t *testing.T) {
	aggs := []AccSpec{{Kind: AggCount, Star: true}, {Kind: AggSum}, {Kind: AggMax}, {Kind: AggAvg}}
	key := make(types.Row, 1)
	for _, groups := range []int{1, 4, 1000} {
		keys := make([]types.Value, groups)
		for i := range keys {
			keys[i] = types.NewInt(int64(i))
		}
		got := testing.AllocsPerRun(20, func() {
			gt := NewGroupTable(1, aggs)
			for range 3 {
				for _, k := range keys {
					key[0] = k
					g := gt.Group(key)
					for j := range aggs {
						_ = gt.Fold(g, j, k)
					}
				}
			}
			_ = gt.Rows()
		})
		ceiling := 4*bits.Len(uint(groups)) + 4
		t.Logf("%4d groups: %.0f allocations (ceiling %d)", groups, got, ceiling)
		if got > float64(ceiling) {
			t.Errorf("%d groups allocate %.0f objects, ceiling %d", groups, got, ceiling)
		}
	}
	got := testing.AllocsPerRun(20, func() {
		gt := NewGroupTable(0, aggs[:3])
		for i := range 100 {
			for j := range 3 {
				_ = gt.Fold(gt.Group(nil), j, types.NewInt(int64(i)))
			}
		}
		_ = gt.Rows()
	})
	t.Logf("no keys: %.0f allocations (ceiling 2)", got)
	if got > 2 {
		t.Errorf("a table without keys allocates %.0f objects, want at most 2", got)
	}
}

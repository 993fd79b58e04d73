package source

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

// foldGroups aggregates rows as the stores do: a key per row into a
// reused scratch row, its group from an expr.GroupTable, each input
// folded in as it is read.
func foldGroups(rows []types.Row, q *Query) ([]types.Row, error) {
	specs := make([]expr.AccSpec, len(q.Aggs))
	for j, a := range q.Aggs {
		specs[j] = expr.AccSpec{Kind: a.Kind, Star: a.Star, Distinct: a.Distinct}
	}
	groups := expr.NewGroupTable(len(q.GroupBy), specs)
	key := make(types.Row, len(q.GroupBy))
	for _, r := range rows {
		for i, c := range q.GroupBy {
			key[i] = r[c]
		}
		g := groups.Group(key)
		for j, a := range q.Aggs {
			var v types.Value
			if !a.Star {
				v = r[a.Col]
			}
			if err := groups.Fold(g, j, v); err != nil {
				return nil, err
			}
		}
	}
	return groups.Rows(), nil
}

// randomValue is NULL, an INT, a FLOAT (some equal to an INT) or, when
// withStrings is set, a STRING, from few enough values that groups and
// DISTINCT repeat.
func randomValue(rng *rand.Rand, withStrings bool) types.Value {
	switch n := rng.Intn(4); {
	case n == 0:
		return types.Null
	case n == 1:
		return types.NewInt(int64(rng.Intn(7) - 3))
	case n == 2 || !withStrings:
		return types.NewFloat(float64(rng.Intn(13)-6) / 2)
	default:
		return types.NewString(string(rune('a' + rng.Intn(4))))
	}
}

// TestGroupTableMatchesReference compares the stores' streaming fold
// with ApplyResidual's plain one on seeded random rows of NULL, INT,
// FLOAT and, in the last column, STRING, over every aggregate kind with
// and without DISTINCT, grouped by none, one or two columns. SUM and
// AVG over the string column fail in both, or in neither.
func TestGroupTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []expr.AggKind{expr.AggCount, expr.AggSum, expr.AggMin, expr.AggMax, expr.AggAvg}
	const width = 4
	failed := 0
	for n := range 2000 {
		rows := make([]types.Row, rng.Intn(40))
		for i := range rows {
			rows[i] = make(types.Row, width)
			for c := range rows[i] {
				rows[i][c] = randomValue(rng, c == width-1)
			}
		}
		q := &Query{GroupBy: rng.Perm(width)[:rng.Intn(3)], Limit: -1}
		for range 1 + rng.Intn(4) {
			a := AggSpec{Kind: kinds[rng.Intn(len(kinds))], Col: rng.Intn(width), Distinct: rng.Intn(3) == 0}
			if a.Kind == expr.AggCount && rng.Intn(3) == 0 {
				a = AggSpec{Kind: expr.AggCount, Col: -1, Star: true}
			}
			q.Aggs = append(q.Aggs, a)
		}
		got, gerr := foldGroups(rows, q)
		want, werr := ApplyResidual(rows, q)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("query %d %s over %v: fold error %v, reference error %v", n, q, rows, gerr, werr)
		}
		if gerr != nil {
			for _, err := range []error{gerr, werr} {
				if !strings.HasSuffix(err.Error(), " over non-numeric value STRING") {
					t.Fatalf("query %d %s: error %v", n, q, err)
				}
			}
			failed++
			continue
		}
		if !slices.EqualFunc(got, want, func(a, b types.Row) bool { return slices.EqualFunc(a, b, types.Identical) }) {
			t.Fatalf("query %d %s over %v:\nfold      %v\nreference %v", n, q, rows, got, want)
		}
	}
	t.Logf("%d of 2000 queries failed on a string", failed)
	if failed == 0 || failed > 1000 {
		t.Errorf("%d of 2000 queries failed: the generator should make some, not most, fail", failed)
	}
}

// TestAggSpecString holds the names an aggregate column gets, which
// plans.golden prints, to what fmt made of them, in one allocation.
func TestAggSpecString(t *testing.T) {
	for _, a := range []AggSpec{
		{Kind: expr.AggCount, Col: -1, Star: true},
		{Kind: expr.AggSum, Col: 2},
		{Kind: expr.AggAvg, Col: 12, Distinct: true},
		{Kind: expr.AggCount, Col: 0, Distinct: true},
		{Kind: expr.AggMax, Col: 1234567},
	} {
		arg := "*"
		if !a.Star {
			arg = fmt.Sprintf("$%d", a.Col)
		}
		if a.Distinct {
			arg = "DISTINCT " + arg
		}
		if got, want := a.String(), fmt.Sprintf("%s(%s)", a.Kind, arg); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if n := testing.AllocsPerRun(20, func() { _ = a.String() }); n > 1 {
			t.Errorf("%s: %.0f allocations, want 1", a, n)
		}
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/types"
)

// sortInput is n rows (a, b, id) behind a projection that builds them —
// and lends them, when the Sort above asks it to: a and b take four
// values and NULL, so keys repeat in every position, and id is the place
// in the input, which is what tells two rows with equal keys apart.
func sortInput(rng *rand.Rand, n int) plan.Node {
	some := func() any {
		if v := rng.Intn(5); v < 4 {
			return v
		}
		return nil
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, some(), some()}
	}
	v := valuesNode(types.NewSchema(intCol("id"), intCol("a"), intCol("b")), rows...)
	return &plan.Project{Input: v, Names: []string{"a", "b", "id"}, Exprs: []expr.Expr{
		expr.NewBoundColRef(1, types.KindInt, "a"), expr.NewBoundColRef(2, types.KindInt, "b"), expr.NewBoundColRef(0, types.KindInt, "id"),
	}}
}

// A Sort told how many rows the Limit above reads returns, through that
// Limit, what the full sort cut to the same window returns: the same
// rows in the same order, ties in arrival order — or the same error.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a, b := expr.NewBoundColRef(0, types.KindInt, "a"), expr.NewBoundColRef(1, types.KindInt, "b")
	keySets := [][]plan.SortKey{
		{{E: a}},
		{{E: a, Desc: true}},
		{{E: a}, {E: b, Desc: true}},
		{{E: b, Desc: true}, {E: a}},
		{{E: expr.NewBinary(expr.OpAdd, a, b)}, {E: b}},
		// Fails on the rows whose b is 0.
		{{E: expr.NewBinary(expr.OpDiv, expr.NewConst(types.NewInt(12)), b), Desc: true}},
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	failed := 0
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(70)
		in := sortInput(rng, n)
		keys := keySets[trial%len(keySets)]
		full, fullErr := Collect(ctx, &plan.Sort{Keys: keys, Input: in})
		if fullErr != nil {
			failed++
		}
		for _, k := range []int64{0, 1, int64(n) - 1, int64(n), int64(n) + 5, 1 << 62} {
			for _, offset := range []int64{0, 3} {
				if k < 0 {
					continue
				}
				what := fmt.Sprintf("trial %d: %d rows, LIMIT %d OFFSET %d", trial, n, k, offset)
				topK := &plan.Limit{N: k, Offset: offset, Input: &plan.Sort{Keys: keys, Input: in, Top: k + offset}}
				got, err := Collect(ctx, topK)
				if fullErr != nil || err != nil {
					if k+offset > 0 && (err == nil || fullErr == nil || err.Error() != fullErr.Error()) {
						t.Fatalf("%s: error %v, the full sort's %v", what, err, fullErr)
					}
					continue
				}
				lo, hi := min(offset, int64(n)), min(k+offset, int64(n))
				want := full[lo:hi]
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) || !types.Identical(got[i][2], want[i][2]) {
						t.Fatalf("%s: row %d = %v, want %v\n got %v\nwant %v", what, i, got[i], want[i], got, want)
					}
				}
				if _, err := Collect(cancelled, topK); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s under a cancelled context: %v", what, err)
				}
			}
		}
	}
	if failed == 0 || failed > 30 {
		t.Errorf("%d of 120 inputs failed to sort: the error case is not what it was written to be", failed)
	}
}

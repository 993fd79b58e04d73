package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gis/internal/expr"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// rangeGen draws filters over t(k INT, v INT) whose conjuncts constrain k
// to constants: =, <, <=, > and >=, either way round, and IN lists with
// duplicates; a constant is an INT around the stored keys, a FLOAT that is
// one (4.0) or lies between two (4.5), or NULL. Now and then a conjunct is
// no such constraint: k <> c, k NOT IN (c), or a comparison of v.
type rangeGen struct{ r *rand.Rand }

var (
	rangeK = expr.NewBoundColRef(0, types.KindInt, "k")
	rangeV = expr.NewBoundColRef(1, types.KindInt, "v")
	cmpOps = []expr.BinOp{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
)

func (g *rangeGen) constant() expr.Expr {
	n := int64(g.r.Intn(14) - 2)
	switch g.r.Intn(8) {
	case 0:
		return expr.NewConst(types.Null)
	case 1:
		return expr.NewConst(types.NewFloat(float64(n)))
	case 2:
		return expr.NewConst(types.NewFloat(float64(n) + 0.5))
	default:
		return expr.NewConst(types.NewInt(n))
	}
}

// constraint draws one constraint on k.
func (g *rangeGen) constraint() expr.Expr {
	if g.r.Intn(6) == 5 {
		in := &expr.InList{E: rangeK}
		for n := 1 + g.r.Intn(5); n > 0; n-- {
			if len(in.List) > 0 && g.r.Intn(4) == 0 {
				in.List = append(in.List, in.List[len(in.List)-1])
				continue
			}
			in.List = append(in.List, g.constant())
		}
		return in
	}
	op, c := cmpOps[g.r.Intn(len(cmpOps))], g.constant()
	if g.r.Intn(2) == 0 {
		return expr.NewBinary(op, c, rangeK)
	}
	return expr.NewBinary(op, rangeK, c)
}

// filter draws one to three conjuncts.
func (g *rangeGen) filter() []expr.Expr {
	conj := make([]expr.Expr, 1+g.r.Intn(3))
	for i := range conj {
		switch g.r.Intn(20) {
		case 0:
			conj[i] = expr.NewBinary(expr.OpNe, rangeK, g.constant())
		case 1:
			conj[i] = &expr.InList{E: rangeK, List: []expr.Expr{g.constant()}, Negate: true}
		case 2:
			conj[i] = expr.NewBinary(cmpOps[g.r.Intn(len(cmpOps))], rangeV, g.constant())
		default:
			conj[i] = g.constraint()
		}
	}
	return conj
}

// TestColumnRangeReadersAgree: the four readers of what a filter says
// about a column agree with their definitions, over drawn filters on a
// key k of ten rows.
//   - A kvstore answers what the reference evaluator does over its
//     bucket, and accepts the filter exactly when CanFilter, under
//     FilterKey, accepts each conjunct: it is shipped what it evaluates.
//   - A relstore probing its index on k answers what the reference
//     evaluator does over its table (which repeats a key and holds a NULL).
//   - Fragment.Split's partition test is sound: when it prunes a
//     fragment, no row of the domain passes both the filter and the
//     fragment's predicate.
//   - The estimator prices a filter at 0 exactly when the range it admits
//     of k, or of v, is empty.
func TestColumnRangeReadersAgree(t *testing.T) {
	ctx := context.Background()
	schema := types.NewSchema(types.Column{Name: "k", Type: types.KindInt}, types.Column{Name: "v", Type: types.KindInt})
	row := func(k, v types.Value) types.Row { return types.Row{k, v} }
	var kvRows []types.Row
	for k := int64(0); k < 10; k++ {
		kvRows = append(kvRows, row(types.NewInt(k), types.NewInt(k%3)))
	}
	relRows := append(slices.Clone(kvRows), row(types.NewInt(3), types.Null), row(types.Null, types.NewInt(1)))
	kv := kvstore.New("kv")
	rel := relstore.New("rel")
	for _, err := range []error{
		kv.CreateBucket("t", schema, 0),
		rel.CreateTable("t", schema),
		rel.CreateIndex("t", 0),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := kv.Insert(ctx, "t", kvRows); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Insert(ctx, "t", relRows); err != nil {
		t.Fatal(err)
	}
	keyed := source.Capabilities{Filter: source.FilterKey}
	info := &source.TableInfo{Schema: schema, KeyColumns: []int{0}}
	// agree runs q on st and compares its rows, as a multiset, with the
	// reference evaluator's over all.
	agree := func(st source.Source, all []types.Row, q *source.Query) (string, error) {
		it, err := st.Execute(ctx, q)
		if err != nil {
			return "", err
		}
		got, err := source.Drain(it)
		if err != nil {
			return "", err
		}
		want, err := source.ApplyResidual(all, q)
		if err != nil {
			return "", err
		}
		if g, w := sortedRows(got), sortedRows(want); !slices.Equal(g, w) {
			return fmt.Sprintf("answers %v, want %v", g, w), nil
		}
		return "", nil
	}
	var domain []types.Value
	for k := int64(-3); k < 13; k++ {
		domain = append(domain, types.NewInt(k))
	}
	domain = append(domain, types.Null)

	ts := stats.Collect(relRows, 2)

	g := &rangeGen{r: rand.New(rand.NewSource(32))}
	pruned := 0
	for i := 0; i < 3000 && !t.Failed(); i++ {
		conj := g.filter()
		filter := expr.Conjoin(conj)
		q := &source.Query{Table: "t", Filter: filter, Limit: -1}

		accepted := true
		for _, c := range conj {
			accepted = accepted && keyed.CanFilter(info, c)
		}
		diff, err := agree(kv, kvRows, q)
		switch {
		case (err == nil) != accepted:
			t.Errorf("WHERE %s: CanFilter under FilterKey says %v, the kvstore answers %v", filter, accepted, err)
		case diff != "":
			t.Errorf("WHERE %s: the kvstore %s", filter, diff)
		}
		if diff, err := agree(rel, relRows, q); err != nil {
			t.Errorf("WHERE %s: the relstore fails: %v", filter, err)
		} else if diff != "" {
			t.Errorf("WHERE %s: the relstore %s", filter, diff)
		}

		kr, _ := expr.ColumnRange(filter, 0)
		vr, _ := expr.ColumnRange(filter, 1)
		if est := stats.Selectivity(filter, ts); (est == 0) != (kr.Empty() || vr.Empty()) {
			t.Errorf("WHERE %s: the estimator prices it at %v, the range of k is %+v, of v %+v", filter, est, kr, vr)
		}

		frag := &Fragment{Where: expr.Conjoin([]expr.Expr{g.constraint(), g.constraint()}[:1+g.r.Intn(2)])}
		if _, _, pruned := frag.Split(filter, func(expr.Expr) bool { return true }); !pruned {
			continue
		}
		pruned++
		for _, k := range domain {
			for _, v := range []types.Value{types.NewInt(0), types.NewInt(1), types.Null} {
				r := row(k, v)
				inFilter, err1 := expr.EvalBool(filter, r)
				inWhere, err2 := expr.EvalBool(frag.Where, r)
				if err1 != nil || err2 != nil {
					t.Fatalf("%v, %v", err1, err2)
				}
				if inFilter && inWhere {
					t.Errorf("WHERE %s pruned a fragment of %s, which holds %s", filter, frag.Where, r)
				}
			}
		}
	}
	t.Logf("%d of 3 000 drawn filters pruned their fragment", pruned)
	if !t.Failed() && pruned < 100 {
		t.Errorf("%d of 3 000 drawn filters pruned their fragment: the draw says little", pruned)
	}
}

func sortedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

package relstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// referenceExecute is Execute done the plain way: every live row of the
// table in order through the filter, the matches listed, then
// source.ApplyResidual's project / aggregate / sort / limit over the
// list. Like Execute it stops listing at the row that fills a LIMIT
// nothing reorders.
func referenceExecute(s *Store, q *source.Query) ([]types.Row, error) {
	grouped := len(q.GroupBy) > 0 || len(q.Aggs) > 0
	limitEarly := q.Limit >= 0 && !grouped && len(q.OrderBy) == 0
	// A query that addresses what the table does not have is refused
	// before a row is read (source.Query.Check has its own test).
	if err := q.Check(s.Capabilities(), &source.TableInfo{Schema: s.tables[q.Table].schema}); err != nil {
		return nil, fmt.Errorf("relstore %s: %w", s.name, err)
	}
	var kept []types.Row
	for _, r := range s.tables[q.Table].rows {
		if r == nil {
			continue
		}
		if q.Filter != nil {
			ok, err := expr.EvalBool(q.Filter, r)
			if err != nil {
				return nil, fmt.Errorf("relstore %s: %w", s.name, err)
			}
			if !ok {
				continue
			}
		}
		kept = append(kept, r)
		if limitEarly && int64(len(kept)) >= q.Limit {
			break
		}
	}
	rest := *q
	rest.Filter = nil // applied above
	out, err := source.ApplyResidual(kept, &rest)
	if err != nil {
		return nil, fmt.Errorf("relstore %s: %w", s.name, err)
	}
	return out, nil
}

// Columns of the reference table.
const (
	refID = iota
	refCat
	refVal
	refN
	refWidth
)

// newRefStore is a table ref(id INT key, cat STRING indexed, val FLOAT,
// n INT) of n rows drawn from seed — a tenth of cat and val NULL — with
// every ninth row then deleted, so the table and both indexes carry
// tombstones, and a few rows moved to another cat, so index buckets are
// not in table order.
func newRefStore(tb testing.TB, seed int64, n int) *Store {
	tb.Helper()
	s := emptyRefStore(tb)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Row, n)
	for i := range rows {
		cat, val := types.NewString(string(rune('a'+rng.Intn(4)))), types.NewFloat(float64(rng.Intn(40))/2)
		if rng.Intn(10) == 0 {
			cat = types.Null
		}
		if rng.Intn(10) == 0 {
			val = types.Null
		}
		rows[i] = types.Row{types.NewInt(int64(i)), cat, val, types.NewInt(int64(rng.Intn(23)))}
	}
	if _, err := s.Insert(ctx, "ref", rows); err != nil {
		tb.Fatal(err)
	}
	mod := func(m, r int64) expr.Expr {
		return refCmp(expr.OpEq, expr.NewBinary(expr.OpMod, refCol(refID), expr.NewConst(types.NewInt(m))), types.NewInt(r))
	}
	if _, err := s.Delete(ctx, "ref", mod(9, 4)); err != nil {
		tb.Fatal(err)
	}
	set := []source.SetClause{{Col: refCat, Value: expr.NewConst(types.NewString("a"))}}
	if _, err := s.Update(ctx, "ref", mod(13, 5), set); err != nil {
		tb.Fatal(err)
	}
	return s
}

// emptyRefStore is the ref table with its key and its index on cat,
// and no rows.
func emptyRefStore(tb testing.TB) *Store {
	tb.Helper()
	s := New("db1")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "cat", Type: types.KindString, Nullable: true},
		types.Column{Name: "val", Type: types.KindFloat, Nullable: true},
		types.Column{Name: "n", Type: types.KindInt},
	)
	if err := s.CreateTable("ref", schema, refID); err != nil {
		tb.Fatal(err)
	}
	if err := s.CreateIndex("ref", refCat); err != nil {
		tb.Fatal(err)
	}
	return s
}

func refCol(i int) expr.Expr {
	kinds := [refWidth]types.Kind{types.KindInt, types.KindString, types.KindFloat, types.KindInt}
	names := [refWidth]string{"id", "cat", "val", "n"}
	return expr.NewBoundColRef(i, kinds[i], names[i])
}

func refCmp(op expr.BinOp, l expr.Expr, v types.Value) expr.Expr {
	return expr.NewBinary(op, l, expr.NewConst(v))
}

func refIn(col int, vals ...types.Value) expr.Expr {
	in := &expr.InList{E: refCol(col)}
	for _, v := range vals {
		in.List = append(in.List, expr.NewConst(v))
	}
	return in
}

// errorsAt is a filter true of every row but the one whose id is id,
// where it divides by zero.
func errorsAt(id int64) expr.Expr {
	return refCmp(expr.OpNe, expr.NewBinary(expr.OpDiv, expr.NewConst(types.NewInt(1<<40)),
		expr.NewBinary(expr.OpSub, refCol(refID), expr.NewConst(types.NewInt(id)))), types.NewInt(0))
}

// refQuery is one cell of the matrix TestExecuteMatchesReference walks.
type refQuery struct {
	name    string
	q       *source.Query
	indexed bool // candidates come from an index, in bucket order
}

// checkAgainstReference runs c.q both ways and compares: the error
// text; the row count and every row's width; that each row is one the
// unlimited reference has, as often; and the order wherever the query
// fixes it — the ORDER BY keys always, the whole rows when a plain scan
// walks the table itself.
//
// Execute is read twice: by a consumer that keeps its rows, under the
// ownership oracle, and by one that asked to be lent them.
func checkAgainstReference(t *testing.T, s *Store, c refQuery) {
	t.Helper()
	checkAgainstReferenceAs(t, s, c, false)
	c.name += ", lent"
	checkAgainstReferenceAs(t, s, c, true)
}

// executeAs runs q and drains it as the reference keeper does, or —
// lent — as a consumer that asks for lent rows and copies each on
// delivery.
func executeAs(s *Store, q *source.Query, lent bool) ([]types.Row, error) {
	it, err := s.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	if lent {
		source.Lend(it)
		return source.DrainCopies(it)
	}
	return source.DrainOwned(it)
}

func checkAgainstReferenceAs(t *testing.T, s *Store, c refQuery, lent bool) {
	t.Helper()
	q := c.q
	want, wantErr := referenceExecute(s, q)
	got, err := executeAs(s, q, lent)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, reference %v", c.name, err, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, reference has %d", c.name, len(got), len(want))
		return
	}
	grouped := len(q.GroupBy) > 0 || len(q.Aggs) > 0
	width := refWidth
	if grouped {
		width = len(q.GroupBy) + len(q.Aggs)
	} else if q.Columns != nil {
		width = len(q.Columns)
	}
	unlimited := *q
	unlimited.Limit = -1
	all, err := referenceExecute(s, &unlimited)
	if err != nil {
		// The limit stopped the scan short of a row the filter fails on.
		all = want
	}
	have := map[string]int{}
	for _, r := range all {
		have[r.String()]++
	}
	for i, r := range got {
		if len(r) != width {
			t.Errorf("%s: row %d = %v, want %d columns", c.name, i, r, width)
			return
		}
		if have[r.String()]--; have[r.String()] < 0 {
			t.Errorf("%s: row %d = %v is not in the reference (or not as often)", c.name, i, r)
			return
		}
		switch {
		case len(q.OrderBy) > 0:
			for _, k := range q.OrderBy {
				if !r[k.Col].Equal(want[i][k.Col]) {
					t.Errorf("%s: row %d = %v, reference %v: out of order", c.name, i, r, want[i])
					return
				}
			}
		case !c.indexed && !grouped:
			if !r.Equal(want[i]) {
				t.Errorf("%s: row %d = %v, reference %v", c.name, i, r, want[i])
				return
			}
		}
	}
}

func TestExecuteMatchesReference(t *testing.T) {
	s := newRefStore(t, 1, 300)
	str, num := types.NewString, types.NewInt
	filters := []refQuery{
		{name: "none"},
		{name: "id = 42", indexed: true, q: &source.Query{Filter: refCmp(expr.OpEq, refCol(refID), num(42))}},
		{name: "id = a deleted row", indexed: true, q: &source.Query{Filter: refCmp(expr.OpEq, refCol(refID), num(13))}},
		{name: "cat = 'a' AND n < 12", indexed: true, q: &source.Query{Filter: expr.NewBinary(expr.OpAnd,
			refCmp(expr.OpEq, refCol(refCat), str("a")), refCmp(expr.OpLt, refCol(refN), num(12)))}},
		{name: "id IN with duplicates", indexed: true, q: &source.Query{Filter: refIn(refID, num(77), num(3), num(77), num(13), num(3), num(9999), num(250))}},
		{name: "cat IN with duplicates", indexed: true, q: &source.Query{Filter: refIn(refCat, str("c"), str("a"), str("c"))}},
		{name: "val range", q: &source.Query{Filter: expr.NewBinary(expr.OpAnd,
			refCmp(expr.OpGe, refCol(refVal), types.NewFloat(3)), refCmp(expr.OpLt, refCol(refVal), types.NewFloat(12)))}},
		{name: "cat > 'b' (NULLs fail)", q: &source.Query{Filter: refCmp(expr.OpGt, refCol(refCat), str("b"))}},
		{name: "no row", q: &source.Query{Filter: refCmp(expr.OpLt, refCol(refID), num(0))}},
		{name: "errors at id 150", q: &source.Query{Filter: errorsAt(150)}},
	}
	count := source.AggSpec{Kind: expr.AggCount, Col: -1, Star: true}
	shapes := []refQuery{
		{name: "all columns"},
		{name: "subset", q: &source.Query{Columns: []int{refVal, refID}}},
		{name: "reordered", q: &source.Query{Columns: []int{refN, refVal, refCat, refID}}},
		{name: "repeated", q: &source.Query{Columns: []int{refCat, refCat, refID}}},
		{name: "no columns", q: &source.Query{Columns: []int{}}},
		{name: "out of range", q: &source.Query{Columns: []int{refID, refWidth}}},
		{name: "global", q: &source.Query{Aggs: []source.AggSpec{count, {Kind: expr.AggSum, Col: refVal}, {Kind: expr.AggMin, Col: refCat}}}},
		{name: "by cat", q: &source.Query{GroupBy: []int{refCat}, Aggs: []source.AggSpec{count, {Kind: expr.AggAvg, Col: refVal}, {Kind: expr.AggCount, Col: refN, Distinct: true}}}},
		{name: "by cat, n", q: &source.Query{GroupBy: []int{refCat, refN}, Aggs: []source.AggSpec{{Kind: expr.AggMax, Col: refID}}}},
		{name: "by cat, no aggregates", q: &source.Query{GroupBy: []int{refCat}}},
		{name: "SUM over strings", q: &source.Query{Aggs: []source.AggSpec{{Kind: expr.AggSum, Col: refCat}}}},
	}
	cases := 0
	for _, f := range filters {
		for _, sh := range shapes {
			if f.name == "errors at id 150" && sh.name == "SUM over strings" {
				// Both fail; which row fails first is the scan's business.
				continue
			}
			q := source.Query{Table: "ref"}
			if f.q != nil {
				q.Filter = f.q.Filter
			}
			width := refWidth
			if sh.q != nil {
				q.Columns, q.GroupBy, q.Aggs = sh.q.Columns, sh.q.GroupBy, sh.q.Aggs
				if width = len(q.GroupBy) + len(q.Aggs); width == 0 {
					width = len(q.Columns)
				}
			}
			orders := [][]source.OrderSpec{nil}
			if width > 0 {
				orders = append(orders, []source.OrderSpec{{Col: 0}}, []source.OrderSpec{{Col: width - 1, Desc: true}, {Col: 0}})
			}
			for oi, order := range orders {
				for _, limit := range []int64{-1, 0, 1, 7} {
					q := q
					q.OrderBy, q.Limit = order, limit
					checkAgainstReference(t, s, refQuery{
						name: fmt.Sprintf("filter %s, %s, order %d, limit %d", f.name, sh.name, oi, limit), q: &q, indexed: f.indexed,
					})
					cases++
				}
			}
		}
	}
	t.Logf("%d queries", cases)
}

// The bitmap of passing candidates is eight words on the stack up to
// 512 candidates and n/64 rounded up above: table sizes and index
// buckets on either side of a word and of the stack array, with the
// first, the last, every and every other candidate passing.
func TestExecuteAtBitmapEdges(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 512, 513, 1000} {
		s := emptyRefStore(t)
		// n rows of cat 'x' are the index's candidates; three others
		// make the table a little longer than the bucket.
		rows := make([]types.Row, n+3)
		for i := range rows {
			cat := "x"
			if i >= n {
				cat = "other"
			}
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(cat), types.NewFloat(float64(i)), types.NewInt(int64(i % 2))}
		}
		if _, err := s.Insert(ctx, "ref", rows); err != nil {
			t.Fatal(err)
		}
		inBucket := refCmp(expr.OpEq, refCol(refCat), types.NewString("x"))
		for name, f := range map[string]expr.Expr{
			"every row":       nil,
			"first row":       refCmp(expr.OpEq, refCol(refVal), types.NewFloat(0)),
			"last row":        refCmp(expr.OpGe, refCol(refVal), types.NewFloat(float64(n+2))),
			"every other row": refCmp(expr.OpEq, refCol(refN), types.NewInt(1)),
		} {
			for _, cols := range [][]int{nil, {refVal, refID}} {
				q := source.Query{Table: "ref", Filter: f, Columns: cols, Limit: -1}
				checkAgainstReference(t, s, refQuery{name: fmt.Sprintf("%d rows, %s, columns %v", n+3, name, cols), q: &q})
				if f != nil {
					q.Filter = expr.NewBinary(expr.OpAnd, inBucket, f)
				} else {
					q.Filter = inBucket
				}
				checkAgainstReference(t, s, refQuery{name: fmt.Sprintf("%d candidates, %s, columns %v", n, name, cols), q: &q, indexed: true})
			}
		}
	}
}

// LIMIT with nothing to reorder the rows stops the scan at the row that
// fills it: a filter that fails on the row after is never evaluated
// there, and one that fails on the filling row's predecessor is.
func TestExecuteLimitStopsTheScan(t *testing.T) {
	s := newRefStore(t, 2, 100)
	const failsAt = 50
	before := int64(0) // live rows ahead of the failing one
	for _, r := range s.tables["ref"].rows[:failsAt] {
		if r != nil {
			before++
		}
	}
	run := func(limit int64, order []source.OrderSpec) ([]types.Row, error) {
		q := &source.Query{Table: "ref", Filter: errorsAt(failsAt), Columns: []int{refID}, OrderBy: order, Limit: limit}
		it, err := s.Execute(ctx, q)
		if err != nil {
			return nil, err
		}
		return source.Drain(it)
	}
	for _, limit := range []int64{1, before} {
		rows, err := run(limit, nil)
		if err != nil || int64(len(rows)) != limit {
			t.Errorf("LIMIT %d: %d rows, %v; the scan went past the row that fills it", limit, len(rows), err)
		}
	}
	if _, err := run(before+1, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("LIMIT %d needs the failing row: err = %v", before+1, err)
	}
	if _, err := run(1, []source.OrderSpec{{Col: 0}}); err == nil {
		t.Error("ORDER BY needs every row: the failing one was not evaluated")
	}
}

// A result outlives the lock it was built under: while UPDATEs commit,
// the rows already returned — the committed rows themselves when
// unprojected — still read as they did. Run under -race.
func TestExecuteResultSurvivesConcurrentUpdate(t *testing.T) {
	s := newRefStore(t, 3, 400)
	queries := []*source.Query{
		{Table: "ref", Limit: -1},
		{Table: "ref", Columns: []int{refVal, refID}, Limit: -1},
		{Table: "ref", Filter: refCmp(expr.OpEq, refCol(refCat), types.NewString("b")), OrderBy: []source.OrderSpec{{Col: refVal}}, Limit: -1},
		{Table: "ref", GroupBy: []int{refCat}, Aggs: []source.AggSpec{{Kind: expr.AggSum, Col: refVal}}, Limit: -1},
	}
	// Each query is read kept and lent.
	queries = append(queries, queries...)
	var its []source.RowIter
	var want [][]types.Row
	for i, q := range queries {
		it, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(queries)/2 {
			source.Lend(it)
		}
		its = append(its, it)
		rows, err := referenceExecute(s, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			rows[i] = r.Clone()
		}
		want = append(want, rows)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		set := []source.SetClause{
			{Col: refVal, Value: expr.NewBinary(expr.OpAdd, refCol(refN), expr.NewConst(types.NewFloat(0.25)))},
			{Col: refCat, Value: expr.NewConst(types.NewString("moved"))},
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Update(ctx, "ref", nil, set); err != nil {
				t.Error(err)
			}
		}
	}()
	for i, it := range its {
		drain := source.DrainOwned
		if i >= len(queries)/2 {
			drain = source.DrainCopies
		}
		got, err := drain(it)
		if err != nil || len(got) != len(want[i]) {
			t.Fatalf("query %d: %d rows, %v; want %d", i, len(got), err, len(want[i]))
		}
		have := map[string]int{}
		for _, r := range want[i] {
			have[r.String()]++
		}
		for _, r := range got {
			if have[r.String()]--; have[r.String()] < 0 {
				t.Fatalf("query %d: row %v is not in the snapshot", i, r)
			}
		}
	}
	wg.Wait()
}

// Execute's allocations are per query, not per row: a fold allocates
// per group, and a projected scan one bitmap, one slice of rows and one
// slab of values whatever their sizes.
func TestExecuteAllocsDoNotGrowWithRows(t *testing.T) {
	const n = 2048
	small, large := benchOrders(t, n, 64), benchOrders(t, 2*n, 64)
	at := func(s *Store, q *source.Query, want int) float64 {
		return testing.AllocsPerRun(5, func() {
			if got := execCount(t, s, q); got != want {
				t.Fatalf("%d rows, want %d", got, want)
			}
		})
	}
	for name, q := range map[string]*source.Query{"GROUP BY": groupAgg(), "global aggregate": globalAgg()} {
		groups := max(len(q.GroupBy)*len(benchRegions), 1)
		if a, b := at(small, q, groups), at(large, q, groups); a != b {
			t.Errorf("%s: %v allocations over %d rows, %v over %d", name, a, n, b, 2*n)
		}
	}
	a, b := at(small, rangeProject(n/4, n/2), n/4), at(large, rangeProject(n/2, n), n/2)
	if b > a+1 {
		t.Errorf("projected range scan: %v allocations for %d of %d rows, %v for %d of %d", a, n/4, n, b, n/2, 2*n)
	}
	// Lent, the slab of values is one row.
	lent := func(s *Store, q *source.Query, want int) (objects float64, bytes uint64) {
		run := func() {
			if got := execCountAs(t, s, q, true); got != want {
				t.Fatalf("%d rows, want %d", got, want)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(5, run), after.TotalAlloc - before.TotalAlloc
	}
	la, bytesA := lent(small, rangeProject(n/4, n/2), n/4)
	lb, bytesB := lent(large, rangeProject(n/2, n), n/2)
	if lb > la+1 || la > a {
		t.Errorf("projected range scan, lent: %v allocations for %d rows, %v for %d (kept: %v)", la, n/4, lb, n/2, a)
	}
	// What grows with the rows is the snapshot's row headers and the
	// bitmap, not four values a row.
	if perRow := float64(bytesB-bytesA) / float64(n/4); perRow > 40 {
		t.Errorf("projected range scan, lent: %.0f B a row (%d B for %d rows, %d B for %d), want a row header and change", perRow, bytesA, n/4, bytesB, n/2)
	}
}

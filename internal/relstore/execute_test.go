package relstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
	for _, r := range tableRows(s, q.Table) {
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

// tableRows lists a table's rows by position, tombstones included.
func tableRows(s *Store, name string) []types.Row {
	t := s.tables[name]
	rows := make([]types.Row, t.n)
	for pos := range rows {
		rows[pos] = t.at(pos)
	}
	return rows
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

// A scan walks the table a chunk at a time and an index probe copies
// its bucket's rows: table sizes and index buckets on either side of a
// chunk, with the first, the last, every and every other candidate
// passing.
func TestExecuteAtChunkEdges(t *testing.T) {
	for _, n := range []int{0, 1, chunkRows - 4, chunkRows - 3, chunkRows - 2, chunkRows, 2*chunkRows - 3, 3*chunkRows + 7} {
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
	for _, r := range tableRows(s, "ref")[:failsAt] {
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
	// The scan is opened whatever its rows hold: the filter's error is
	// Next's, after the rows before it, and names the store.
	it, err := s.Execute(ctx, &source.Query{Table: "ref", Filter: errorsAt(failsAt), Limit: -1})
	if err != nil {
		t.Fatalf("Execute of a scan whose filter fails on a row: %v", err)
	}
	rows, err := source.Drain(it)
	if int64(len(rows)) != before || err == nil || !strings.HasPrefix(err.Error(), "relstore db1: ") || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("%d rows, then %v; want %d and the store's division by zero", len(rows), err, before)
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

// A fold's allocations are per group, not per row.
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
}

// A scan borrows the table: read by a consumer that is lent its rows,
// it allocates its iterator and, projected, one row — the same objects
// and the same bytes over 2 048 rows and over 4 096, all of them
// passing or a quarter.
func TestLentScanAllocsDoNotGrowPerRow(t *testing.T) {
	const n = 2048
	small, large := benchOrders(t, n, 64), benchOrders(t, 2*n, 64)
	all := func(cols []int) *source.Query { return &source.Query{Table: "orders", Columns: cols, Limit: -1} }
	for name, c := range map[string]struct {
		small, large *source.Query
		rows         int // of small; large returns twice as many
	}{
		"every row":            {all(nil), all(nil), n},
		"every row, projected": {all([]int{2, 0}), all([]int{2, 0}), n},
		"a range, projected":   {rangeProject(n/4, n/2), rangeProject(n/2, n), n / 4},
	} {
		scan := func(s *Store, q *source.Query, want int) func() {
			return func() {
				if got := execCountAs(t, s, q, true); got != want {
					t.Fatalf("%s: %d rows, want %d", name, got, want)
				}
			}
		}
		objA, bytesA := source.Allocations(scan(small, c.small, c.rows))
		objB, bytesB := source.Allocations(scan(large, c.large, 2*c.rows))
		if objA != objB || bytesA != bytesB {
			t.Errorf("%s: %v objects and %d B over %d rows, %v and %d B over %d", name, objA, bytesA, n, objB, bytesB, 2*n)
		}
		if objA > 3 {
			t.Errorf("%s: %v objects, want the iterator, the filter's list of conjuncts and one row at most", name, objA)
		}
	}
}

// bumpAmount is SET amount = amount + 1.
var bumpAmount = []source.SetClause{{Col: 2, Value: expr.NewBinary(expr.OpAdd, benchAmount, expr.NewConst(types.NewFloat(1)))}}

// updateOne is UPDATE orders SET amount = amount + 1 WHERE <one row>.
func updateOne(tb testing.TB, s *Store, where expr.Expr) {
	if n, err := s.Update(ctx, "orders", where, bumpAmount); err != nil || n != 1 {
		tb.Fatalf("update WHERE %s: %d rows, %v", where, n, err)
	}
}

// A write pays for a scan only when there is one: with no view taken
// since the chunk it writes to was made, an update allocates what it
// did before chunks could be borrowed (updateAllocs, measured at the
// commit before this one) and copies nothing; after a full scan it
// copies that chunk and the directory, once, whatever the table's
// size — and an index probe, an aggregate and a pushed ORDER BY take no
// view at all.
func TestWriteCopiesOnlyWhenViewed(t *testing.T) {
	const updateAllocs = 3 // the transaction, its undo log, the new row
	full := source.NewScan("orders")
	probe := &source.Query{Table: "orders", Filter: benchCmp(expr.OpEq, benchCust, types.NewInt(3)), Limit: -1}
	ordered := &source.Query{Table: "orders", OrderBy: []source.OrderSpec{{Col: 2}}, Limit: 3}
	var viewed [2]float64
	for i, n := range []int{1000, 100000} {
		s := benchOrders(t, n, 50)
		one := benchCmp(expr.OpEq, benchOid, types.NewInt(int64(n/2)))
		next := benchCmp(expr.OpEq, benchOid, types.NewInt(int64(n/2+1))) // in one's chunk
		if got := testing.AllocsPerRun(20, func() { updateOne(t, s, one) }); got != updateAllocs {
			t.Errorf("%d rows, no view outstanding: an update allocates %v objects, want %v", n, got, updateAllocs)
		}
		for _, q := range []*source.Query{probe, globalAgg(), ordered} {
			openScan(t, s, q)
		}
		updateOne(t, s, one)
		if c := s.ViewCopies(); c != 0 {
			t.Errorf("%d rows: %d chunks copied with no view taken", n, c)
		}
		// Every update follows a new scan, and so copies again.
		viewed[i] = testing.AllocsPerRun(20, func() {
			openScan(t, s, full)
			updateOne(t, s, one)
			updateOne(t, s, next) // the chunk is the writer's own now
		})
		if c := s.ViewCopies(); c != 21 {
			t.Errorf("%d rows: %d chunks copied by 21 updates that each followed a scan, and 21 that did not", n, c)
		}
	}
	// The scan's iterator, two updates, the chunk and the directory.
	if want := float64(1 + 2*updateAllocs + 2); viewed[0] != want || viewed[1] != want {
		t.Errorf("a scan and two updates allocate %v objects over 1 000 rows and %v over 100 000, want %v", viewed[0], viewed[1], want)
	}
}

// The allocator rounds a chunk up to nothing: 170 row headers and its
// own 8-byte header are the 4 KiB size class. If this fails after a
// toolchain bump, re-derive chunkRows.
func TestChunkBytes(t *testing.T) {
	const mallocHeader, class = 8, 4096
	if got := unsafe.Sizeof(chunk{}) + mallocHeader; got > class || got+unsafe.Sizeof(types.Row{}) <= class {
		t.Errorf("a chunk takes %d B with its header: want the most rows that fit %d B", got, class)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chunkSink = new(chunk)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != class {
		t.Errorf("new(chunk) allocates %d B, want %d", got, class)
	}
}

var chunkSink *chunk // makes TestChunkBytes' chunk escape

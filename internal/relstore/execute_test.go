package relstore

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
		rows[pos] = rowAt(t, pos)
	}
	return rows
}

// rowAt decodes row pos of t, nil for a tombstone.
func rowAt(t *table, pos int) types.Row {
	c, k := t.dir[pos/types.ChunkRows], pos%types.ChunkRows
	if !c.Live(k) {
		return nil
	}
	return c.Decode(k, make(types.Row, t.schema.Len()))
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
		source.Use(it, source.Lent)
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

// TestExactProbeIsTheFilter: where the index probe alone decides the
// filter — col = constant or col IN (constants), on the probed column —
// the rows it names are not filtered again, so they must be the rows
// that evaluating the filter over every row passes: NULL and repeated
// keys in the list, NULL in the column, a key of the other numeric kind
// and a list long enough for the filter to hash its constants included,
// read kept and lent.
func TestExactProbeIsTheFilter(t *testing.T) {
	s := newRefStore(t, 2, 300)
	str, num := types.NewString, types.NewInt
	cats := []types.Value{str("c"), types.Null, str("a"), str("c"), str("zz"), str("b"), types.Null, str("a"), str("q")}
	for _, c := range []struct {
		name          string
		filter        expr.Expr
		probed, exact bool
	}{
		{"id = 42", refCmp(expr.OpEq, refCol(refID), num(42)), true, true},
		{"42 = id", expr.NewBinary(expr.OpEq, expr.NewConst(num(42)), refCol(refID)), true, true},
		{"id = 4.0", refCmp(expr.OpEq, refCol(refID), types.NewFloat(4)), true, true},
		{"id IN with NULL and duplicates", refIn(refID, num(77), types.Null, num(3), num(77), num(13), types.NewFloat(4), num(9999)), true, true},
		{"cat IN with NULL and duplicates", refIn(refCat, cats[:4]...), true, true},
		{"cat IN, nine with NULL and duplicates", refIn(refCat, cats...), true, true},
		{"cat IN (NULL)", refIn(refCat, types.Null), true, true},
		{"cat = NULL", refCmp(expr.OpEq, refCol(refCat), types.Null), true, true},
		{"cat = 'a' AND n < 12", expr.NewBinary(expr.OpAnd,
			refCmp(expr.OpEq, refCol(refCat), str("a")), refCmp(expr.OpLt, refCol(refN), num(12))), true, false},
		{"cat NOT IN", &expr.InList{E: refCol(refCat), List: []expr.Expr{expr.NewConst(str("a"))}, Negate: true}, false, false},
	} {
		_, probed, exact := s.tables["ref"].candidateRows(c.filter, nil)
		if probed != c.probed || exact != c.exact {
			t.Errorf("%s: probed %v, exact %v; want %v, %v", c.name, probed, exact, c.probed, c.exact)
		}
		for _, cols := range [][]int{nil, {refN, refCat}} {
			q := &source.Query{Table: "ref", Filter: c.filter, Columns: cols, Limit: -1}
			want, err := referenceExecute(s, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, lent := range []bool{false, true} {
				got, err := executeAs(s, q, lent)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				sortRows(got)
				sortRows(want)
				if len(got) != len(want) || !slices.EqualFunc(got, want, types.Row.Equal) {
					t.Errorf("%s, columns %v, lent %v: %d rows %v, evaluated %d rows %v", c.name, cols, lent, len(got), got, len(want), want)
				}
			}
		}
	}
}

// sortRows orders rows by how they print.
func sortRows(rows []types.Row) {
	slices.SortFunc(rows, func(a, b types.Row) int { return strings.Compare(a.String(), b.String()) })
}

// A scan walks the table a chunk at a time and an index probe copies
// its bucket's rows: table sizes and index buckets on either side of a
// chunk, with the first, the last, every and every other candidate
// passing.
func TestExecuteAtChunkEdges(t *testing.T) {
	const rows = types.ChunkRows
	for _, n := range []int{0, 1, rows - 4, rows - 3, rows - 2, rows, 2*rows - 3, 3*rows + 7} {
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
			source.Use(it, source.Lent)
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

// An index probe reads its rows' values after the lock, without a view:
// while probes of one bucket are read row by row, kept and lent, a
// writer rewrites that bucket's rows again and again, and every probe
// reads one committed version — each row's val and n written by the
// same statement, and all of a probe's rows by one statement. The writer
// also appends rows with a NULL, whose bit may share a bitmap word with
// the rows a full scan, read beside the probes, holds. Run under -race.
func TestProbesSurviveConcurrentWrites(t *testing.T) {
	s := newRefStore(t, 4, 600)
	bucket := refCmp(expr.OpEq, refCol(refCat), types.NewString("b"))
	write := func(x int64) error {
		set := []source.SetClause{{Col: refVal, Value: expr.NewConst(types.NewFloat(float64(x)))}, {Col: refN, Value: expr.NewConst(types.NewInt(x))}}
		_, err := s.Update(ctx, "ref", bucket, set)
		return err
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for x := int64(1); ; x++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := write(x); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Insert(ctx, "ref", []types.Row{{types.NewInt(1000 + x), types.NewString("z"), types.Null, types.NewInt(0)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if i%4 == 2 {
			if _, err := executeAs(s, source.NewScan("ref"), true); err != nil {
				t.Fatal(err)
			}
		}
		q := &source.Query{Table: "ref", Filter: bucket, Columns: []int{refN, refVal}, Limit: -1}
		if i%3 == 0 {
			q.Filter = expr.NewBinary(expr.OpAnd, bucket, refIn(refCat, types.NewString("b"), types.NewString("c")))
		}
		it, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			source.Use(it, source.Lent)
		}
		var first types.Value
		for k := 0; ; k++ {
			r, err := it.Next()
			if err != nil {
				break
			}
			runtime.Gosched()
			if r[1].Float() != float64(r[0].Int()) {
				t.Fatalf("probe %d, row %d: n %v and val %v from two statements", i, k, r[0], r[1])
			}
			if k == 0 {
				first = r[0]
			} else if !r[0].Equal(first) {
				t.Fatalf("probe %d, row %d: n %v, row 0 had %v: rows of two versions", i, k, r[0], first)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if p := s.tables["ref"].probing.Load(); p != 0 {
		t.Errorf("%d probes still counted open after every one was closed", p)
	}
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
// since the chunk it writes to was made, an update allocates
// updateAllocs objects and copies nothing; after a full scan it copies,
// once, whatever the table's size, the chunk's header, the array of its
// vector headers, the vector of each column it sets and the directory —
// and an index probe, an aggregate and a pushed ORDER BY take no view at
// all. What it copies is checked vector by vector (checkCopied): an
// UPDATE of amount copies amount's vector and nothing of oid, cust_id
// or region; a DELETE copies the header, which holds the live bitmap,
// and nothing else.
func TestWriteCopiesOnlyWhenViewed(t *testing.T) {
	const updateAllocs = 4 // the transaction, its undo log, the new row, the row match decodes into
	full := source.NewScan("orders")
	probe := &source.Query{Table: "orders", Filter: benchCmp(expr.OpEq, benchCust, types.NewInt(3)), Limit: -1}
	ordered := &source.Query{Table: "orders", OrderBy: []source.OrderSpec{{Col: 2}}, Limit: 3}
	var viewed [2]float64
	for i, n := range []int{1000, 100000} {
		s := benchOrders(t, n, 50)
		tbl := s.tables["orders"]
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

		c := n / 2 / types.ChunkRows
		openScan(t, s, full)
		before := tbl.dir[c]
		updateOne(t, s, one)
		checkCopied(t, fmt.Sprintf("%d rows, UPDATE of amount", n), before, tbl.dir[c], 2)
		openScan(t, s, full)
		before = tbl.dir[c]
		if k, err := s.Delete(ctx, "orders", next); err != nil || k != 1 {
			t.Fatalf("delete: %d rows, %v", k, err)
		}
		checkCopied(t, fmt.Sprintf("%d rows, DELETE", n), before, tbl.dir[c], headerOnly)
	}
	// The scan's iterator and the row it read, two updates, the chunk's
	// header, its vector headers, amount's vector and the directory.
	if want := float64(2 + 2*updateAllocs + 4); viewed[0] != want || viewed[1] != want {
		t.Errorf("a scan and two updates allocate %v objects over 1 000 rows and %v over 100 000, want %v", viewed[0], viewed[1], want)
	}
}

// headerOnly is checkCopied's part for a write of the tombstones alone.
const headerOnly = -1

// checkCopied holds a write after a scan to what it copies of chunk
// before, which a view holds, to make after: the header always, and of
// the vectors only part's — column part's values, or none for
// headerOnly, when the array of vector headers is not copied either.
func checkCopied(t *testing.T, name string, before, after *types.Chunk, part int) {
	t.Helper()
	if before == after {
		t.Errorf("%s: the chunk's header was written in place", name)
		return
	}
	if shared := &before.Cols[0] == &after.Cols[0]; shared != (part == headerOnly) {
		t.Errorf("%s: the array of vector headers shared: %v", name, shared)
	}
	for col := range before.Cols {
		was, is := arrays(before.Cols[col]), arrays(after.Cols[col])
		for j := range was {
			if was[j] == 0 {
				continue
			}
			if copied := was[j] != is[j]; copied != (col == part) {
				t.Errorf("%s: column %d's array %d copied: %v", name, col, j, copied)
			}
		}
	}
}

// arrays returns the address of the array each of v's slices holds, 0
// for one with no room: what a copy of v does not share with it.
func arrays(v types.Vector) []uintptr {
	rv := reflect.ValueOf(v)
	var out []uintptr
	for i := range rv.NumField() {
		if f := rv.Field(i); f.Kind() == reflect.Slice {
			out = append(out, f.Pointer()*uintptr(min(f.Cap(), 1)))
		}
	}
	return out
}

// An UPDATE and a DELETE rolled back while a scan holds their chunks:
// the scan reads the version it borrowed, and the table reads as before,
// bit for bit — a NaN's payload, −0, a TIME's nanoseconds, BYTES, NULLs.
func TestAbortWhileScanned(t *testing.T) {
	s := New("db")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Column{Name: "at", Type: types.KindTime, Nullable: true},
		types.Column{Name: "b", Type: types.KindBytes, Nullable: true},
	)
	if err := s.CreateTable("t", schema, 0); err != nil {
		t.Fatal(err)
	}
	const n = types.ChunkRows + 40
	nan := types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))
	rows := make([]types.Row, n)
	for i := range rows {
		f := []types.Value{nan, types.NewFloat(math.Copysign(0, -1)), types.Null, types.NewFloat(float64(i) / 3)}[i%4]
		at := types.NewTime(time.Unix(int64(i)*86400, int64(i)*7919+1))
		if i%5 == 0 {
			at = types.Null
		}
		rows[i] = types.Row{types.NewInt(int64(i)), f, at, types.NewBytes([]byte{byte(i), 0, byte(i >> 8)})}
	}
	if _, err := s.Insert(ctx, "t", rows); err != nil {
		t.Fatal(err)
	}
	same := func(a, b types.Value) bool {
		if a.Kind() == types.KindFloat && b.Kind() == types.KindFloat {
			return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
		}
		return a.Kind() == b.Kind() && a.Equal(b)
	}
	identical := func(got, want []types.Row) bool {
		return slices.EqualFunc(got, want, func(a, b types.Row) bool { return slices.EqualFunc(a, b, same) })
	}
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	for _, lent := range []bool{false, true} {
		scan, err := s.Execute(ctx, source.NewScan("t"))
		if err != nil {
			t.Fatal(err)
		}
		if lent {
			source.Use(scan, source.Lent)
		}
		tx, _ := s.BeginTx(ctx)
		set := []source.SetClause{
			{Col: 1, Value: expr.NewConst(types.NewFloat(1))},
			{Col: 2, Value: expr.NewConst(types.Null)},
			{Col: 3, Value: expr.NewConst(types.NewBytes([]byte("new")))},
		}
		if k, err := tx.Update(ctx, "t", expr.NewBinary(expr.OpLt, id, expr.NewConst(types.NewInt(n-10))), set); err != nil || k != n-10 {
			t.Fatalf("update: %d rows, %v", k, err)
		}
		if k, err := tx.Delete(ctx, "t", expr.NewBinary(expr.OpGe, id, expr.NewConst(types.NewInt(100)))); err != nil || k != n-100 {
			t.Fatalf("delete: %d rows, %v", k, err)
		}
		drain := source.DrainOwned
		if lent {
			drain = source.DrainCopies
		}
		if got, err := drain(scan); err != nil || !identical(got, rows) {
			t.Errorf("lent %v: the scan opened before the writes read %d rows, %v, not the version it borrowed", lent, len(got), err)
		}
		if err := tx.Abort(ctx); err != nil {
			t.Fatal(err)
		}
		if got := runQuery(t, s, source.NewScan("t")); !identical(got, rows) {
			t.Errorf("lent %v: after the abort the table reads %v, want %v", lent, got[:3], rows[:3])
		}
	}
}

// The rows of the orders table, indexes dropped — three numbers and one
// of four shared region strings a row — hold 40 B a row of values in
// their vectors, and each chunk's live bitmap, header and stamps add
// about 2 B: at most 48 B a row, where a row of Values takes 120 B (a
// 24 B slice header and 4 × 24 B).
func TestRowBytesPerRow(t *testing.T) {
	const n, ceiling = 100000, 48
	s := New("bench")
	if err := s.CreateTable("orders", ordersSchema, 0); err != nil {
		t.Fatal(err)
	}
	rows := benchRows(n, 50)
	for i, r := range rows {
		r[3] = types.NewString(benchRegions[i%4])
	}
	if _, err := s.Insert(ctx, "orders", rows); err != nil {
		t.Fatal(err)
	}
	rows = nil
	tbl := s.tables["orders"]
	tbl.indexes = nil
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	tbl.dir = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(s)
	perRow := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / n
	t.Logf("the rows hold %.1f B a row", perRow)
	if perRow > ceiling {
		t.Errorf("the rows hold %.1f B a row, want at most %d", perRow, ceiling)
	}
}

// The ceiling is the one the map-headed index met: a distinct value in
// one map slot, at most 17·16/7 ≈ 38.9 B an entry in a table kept
// between 7/16 and 7/8 full, next at 5 B a row under the key and 4 B
// under the secondary index, and under 1 B a row for the 2 000
// customers' slots. A chain holds a row in head and next, one int32
// each, with up to twice as many heads as positions: 8–16 B a row an
// index. A slice per value cannot meet the ceiling: its slot is 32 B,
// and the key's one-element slices alone add 8 B a row.
func TestIndexBytesPerRow(t *testing.T) {
	const n, fanout, ceiling = 100000, 50, 17.0*16/7 + 5 + 4 + 1
	s := New("bench")
	if err := s.CreateTable("orders", ordersSchema, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(ctx, "orders", benchRows(n, fanout)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("orders", 1); err != nil {
		t.Fatal(err)
	}
	tbl := s.tables["orders"]
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	tbl.indexes = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(s)
	perRow := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / n
	t.Logf("a key and a secondary index hold %.1f B a row", perRow)
	if perRow > ceiling {
		t.Errorf("a key and a secondary index hold %.1f B a row, want at most %.1f", perRow, ceiling)
	}
}

// A table refuses the row whose position an int32 cannot hold.
func TestInsertRefusedPastMaxRows(t *testing.T) {
	s := emptyRefStore(t)
	s.tables["ref"].n = maxRows // as if full: the refusal reads nothing else
	row := types.Row{types.NewInt(1), types.NewString("a"), types.NewFloat(1), types.NewInt(1)}
	if _, err := s.Insert(ctx, "ref", []types.Row{row}); err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("insert into a full table: %v, want it refused", err)
	}
}

// TestIndexMatchesRebuild runs seeded INSERTs, UPDATEs — of the key and
// of the indexed column too — and DELETEs, some in transactions that
// abort, and after every statement holds each index to one rebuilt from
// the live rows, and each probe to a filtered full scan.
func TestIndexMatchesRebuild(t *testing.T) {
	s := emptyRefStore(t)
	tbl := s.tables["ref"]
	rng := rand.New(rand.NewSource(7))
	str, num := types.NewString, types.NewInt
	const ids = 60 // inserts draw from few ids, so some collide
	cat := func() types.Value {
		if rng.Intn(8) == 0 {
			return types.Null
		}
		return str(string(rune('a' + rng.Intn(4))))
	}
	filter := func() expr.Expr {
		switch rng.Intn(5) {
		case 0:
			return refCmp(expr.OpEq, refCol(refID), num(int64(rng.Intn(ids))))
		case 1:
			return refCmp(expr.OpEq, refCol(refCat), cat())
		case 2:
			return refIn(refID, num(int64(rng.Intn(ids))), num(int64(rng.Intn(ids))), num(int64(rng.Intn(ids))))
		case 3:
			return refIn(refCat, cat(), cat())
		default:
			return refCmp(expr.OpLt, refCol(refN), num(int64(rng.Intn(8)))) // no index applies
		}
	}
	statement := func(w source.Writer) error {
		switch rng.Intn(5) {
		case 0, 1:
			rows := make([]types.Row, 1+rng.Intn(3))
			for i := range rows {
				rows[i] = types.Row{num(int64(rng.Intn(ids))), cat(), types.NewFloat(float64(rng.Intn(9))), num(int64(rng.Intn(10)))}
			}
			_, err := w.Insert(ctx, "ref", rows)
			return err
		case 2, 3:
			set := [][]source.SetClause{
				{{Col: refCat, Value: expr.NewConst(cat())}},
				{{Col: refID, Value: expr.NewBinary(expr.OpAdd, refCol(refID), expr.NewConst(num(int64(1+rng.Intn(5)))))}},
				{{Col: refID, Value: expr.NewConst(num(int64(ids + rng.Intn(ids))))}, {Col: refCat, Value: expr.NewConst(cat())}},
				{{Col: refN, Value: expr.NewBinary(expr.OpAdd, refCol(refN), expr.NewConst(num(1)))}},
			}[rng.Intn(4)]
			_, err := w.Update(ctx, "ref", filter(), set)
			return err
		default:
			f := filter()
			if rng.Intn(8) > 0 { // most deletes take a row or none, so rows stay live
				f = refCmp(expr.OpEq, refCol(refID), num(int64(rng.Intn(2*ids))))
			}
			_, err := w.Delete(ctx, "ref", f)
			return err
		}
	}
	probes := []expr.Expr{refIn(refCat, str("a"), str("d")), refIn(refID, num(3), num(ids+3), num(3))}
	for c := range 4 {
		probes = append(probes, refCmp(expr.OpEq, refCol(refCat), str(string(rune('a'+c)))))
	}
	for id := range 2 * ids {
		probes = append(probes, refCmp(expr.OpEq, refCol(refID), num(int64(id))))
	}
	check := func(step int) {
		t.Helper()
		checkIndexes(t, step, tbl)
		for _, f := range probes {
			checkProbe(t, step, tbl, f)
		}
	}
	statements, aborted := 0, 0
	for step := 0; step < 400; step++ {
		if rng.Intn(3) > 0 {
			_ = statement(s) // autocommit: a statement that fails rolls back
			statements++
			check(step)
			continue
		}
		tx, err := s.BeginTx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		abort := rng.Intn(2) == 0
		for k := 1 + rng.Intn(4); k > 0; k-- {
			err := statement(tx)
			statements++
			check(step)
			if err != nil {
				abort = true
				break
			}
		}
		if abort {
			if err := tx.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			aborted++
		} else if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	t.Logf("%d statements, %d transactions aborted, %d of %d rows live", statements, aborted, tbl.live.Load(), tbl.n)
}

// checkIndexes holds every index of tbl to the design: each live
// position linked once, under its own value's bucket, no tombstone
// linked, and the live positions under each hash, in probe order, those
// of an index rebuilt from the live rows.
func checkIndexes(t *testing.T, step int, tbl *table) {
	t.Helper()
	for _, x := range tbl.indexes {
		linked := make([]bool, tbl.n)
		got := map[uint64][]int{}
		for b := 0; b < x.Buckets(); b++ {
			for p := x.First(uint64(b)); p >= 0; p = x.Next(p) {
				if linked[p] {
					t.Fatalf("step %d, index on %d: position %d linked twice", step, x.col, p)
				}
				linked[p] = true
				r := rowAt(tbl, p)
				if r == nil {
					t.Fatalf("step %d, index on %d: tombstone %d linked", step, x.col, p)
				}
				h := r[x.col].Hash(0)
				if int(h&uint64(x.Buckets()-1)) != b {
					t.Fatalf("step %d, index on %d: row %d = %v linked under another value's bucket", step, x.col, p, r)
				}
				got[h] = append(got[h], p)
			}
		}
		want := map[uint64][]int{}
		for pos := 0; pos < tbl.n; pos++ {
			if r := rowAt(tbl, pos); r != nil {
				if !linked[pos] {
					t.Fatalf("step %d, index on %d: position %d not linked", step, x.col, pos)
				}
				h := r[x.col].Hash(0)
				want[h] = append(want[h], pos)
			}
		}
		for h := range got {
			slices.Sort(got[h])
		}
		if !maps.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("step %d, index on %d: live positions %v, rebuilt %v", step, x.col, got, want)
		}
	}
}

// checkProbe holds what an index probe yields for filter f, filtered —
// unless the probe says it decides f exactly — to what a filtered full
// scan yields: the same positions, in order.
func checkProbe(t *testing.T, step int, tbl *table, f expr.Expr) {
	t.Helper()
	candidates, indexed, exact := tbl.candidateRows(f, nil)
	if !indexed {
		t.Fatalf("step %d: no index applies to %s", step, f)
	}
	var got, want []int
	for _, p := range candidates {
		if r := rowAt(tbl, int(p)); r != nil && (exact || evalTrue(t, f, r)) {
			got = append(got, int(p))
		}
	}
	for pos := 0; pos < tbl.n; pos++ {
		if r := rowAt(tbl, pos); r != nil && evalTrue(t, f, r) {
			want = append(want, pos)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: probe for %s yields %v, a full scan %v", step, f, got, want)
	}
}

func evalTrue(t *testing.T, f expr.Expr, r types.Row) bool {
	t.Helper()
	ok, err := expr.EvalBool(f, r)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

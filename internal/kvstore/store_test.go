package kvstore

import (
	"context"
	"io"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

var ctx = context.Background()

func newTestKV(t *testing.T) *Store {
	t.Helper()
	s := New("kv1")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
	)
	if err := s.CreateBucket("users", schema, 0); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("u" + string(rune('a'+i%26)))})
	}
	if _, err := s.Insert(ctx, "users", rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func keyPred(t *testing.T, s *Store, e expr.Expr) expr.Expr {
	t.Helper()
	info, err := s.TableInfo(ctx, "users")
	if err != nil {
		t.Fatal(err)
	}
	b, err := expr.Bind(e, info.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestKVScanAndPointLookup(t *testing.T) {
	s := newTestKV(t)
	it, err := s.Execute(ctx, source.NewScan("users"))
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := source.Drain(it)
	if len(rows) != 50 {
		t.Fatalf("scan = %d", len(rows))
	}
	// Rows come back in key order.
	for i := 1; i < len(rows); i++ {
		if rows[i][0].Int() <= rows[i-1][0].Int() {
			t.Fatal("scan not in key order")
		}
	}
	q := source.NewScan("users")
	q.Filter = keyPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(7))))
	it, err = s.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ = source.Drain(it)
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Errorf("point lookup = %v", rows)
	}
}

func TestKVRangeScan(t *testing.T) {
	s := newTestKV(t)
	q := source.NewScan("users")
	q.Filter = keyPred(t, s, expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpGe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(10))),
		expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(15)))))
	it, err := s.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := source.Drain(it)
	if len(rows) != 5 || rows[0][0].Int() != 10 || rows[4][0].Int() != 14 {
		t.Errorf("range scan = %v", rows)
	}
	// Commuted constant-first comparison.
	q.Filter = keyPred(t, s, expr.NewBinary(expr.OpGt, expr.NewConst(types.NewInt(47)), expr.NewColRef("", "id")))
	it, _ = s.Execute(ctx, q)
	rows, _ = source.Drain(it)
	if len(rows) != 47 {
		t.Errorf("commuted range = %d rows", len(rows))
	}
}

// TestKVInListAnswersEachKeyOnce: an IN list is a set of keys. An entry
// repeated, or spelled as another numeric kind, names one key; a NULL
// entry names none; accompanying bounds and a limit still apply.
func TestKVInListAnswersEachKeyOnce(t *testing.T) {
	s := newTestKV(t)
	in := func(vals ...types.Value) *expr.InList {
		n := &expr.InList{E: expr.NewColRef("", "id")}
		for _, v := range vals {
			n.List = append(n.List, expr.NewConst(v))
		}
		return n
	}
	ids := func(q *source.Query) []int64 {
		t.Helper()
		it, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := source.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r[0].Int()
		}
		return out
	}
	same := func(got []int64, want ...int64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	list := in(types.NewInt(2), types.NewInt(1), types.NewInt(1), types.NewFloat(2.0), types.Null, types.NewInt(77))
	q := &source.Query{Table: "users", Filter: keyPred(t, s, list), Limit: -1}
	if got := ids(q); !same(got, 1, 2) {
		t.Errorf("id IN (2, 1, 1, 2.0, NULL, 77) = %v, want [1 2]", got)
	}
	bounded := expr.NewBinary(expr.OpAnd, in(types.NewInt(9), types.NewInt(3), types.NewInt(3), types.NewInt(5)),
		expr.NewBinary(expr.OpGt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(3))))
	q = &source.Query{Table: "users", Filter: keyPred(t, s, bounded), Limit: -1}
	if got := ids(q); !same(got, 5, 9) {
		t.Errorf("id IN (9, 3, 3, 5) AND id > 3 = %v, want [5 9]", got)
	}
	q.Limit = 1
	if got := ids(q); !same(got, 5) {
		t.Errorf("... LIMIT 1 = %v, want [5]", got)
	}
}

func TestKVLimit(t *testing.T) {
	s := newTestKV(t)
	q := source.NewScan("users")
	q.Limit = 5
	it, _ := s.Execute(ctx, q)
	rows, _ := source.Drain(it)
	if len(rows) != 5 {
		t.Errorf("limit = %d", len(rows))
	}
}

func TestKVRejectsUnsupportedShapes(t *testing.T) {
	s := newTestKV(t)
	q := source.NewScan("users")
	q.Columns = []int{1}
	if _, err := s.Execute(ctx, q); err == nil {
		t.Error("projection must be rejected")
	}
	q = source.NewScan("users")
	q.Aggs = []source.AggSpec{{Kind: expr.AggCount, Star: true}}
	if _, err := s.Execute(ctx, q); err == nil {
		t.Error("aggregation must be rejected")
	}
	q = source.NewScan("users")
	q.Filter = keyPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "name"), expr.NewConst(types.NewString("x"))))
	if _, err := s.Execute(ctx, q); err == nil {
		t.Error("non-key filter must be rejected")
	}
}

func TestKVWrite(t *testing.T) {
	s := newTestKV(t)
	// Duplicate key.
	if _, err := s.Insert(ctx, "users", []types.Row{{types.NewInt(1), types.NewString("dup")}}); err == nil {
		t.Error("duplicate key must error")
	}
	// NULL key.
	if _, err := s.Insert(ctx, "users", []types.Row{{types.Null, types.NewString("n")}}); err == nil {
		t.Error("NULL key must error")
	}
	// Update non-key column.
	info, _ := s.TableInfo(ctx, "users")
	newName, _ := expr.Bind(expr.NewConst(types.NewString("renamed")), info.Schema)
	n, err := s.Update(ctx, "users",
		keyPred(t, s, expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(3)))),
		[]source.SetClause{{Col: 1, Value: newName}})
	if err != nil || n != 3 {
		t.Fatalf("update = %d, %v", n, err)
	}
	// Update that moves the key.
	plus100, _ := expr.Bind(expr.NewBinary(expr.OpAdd, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(100))), info.Schema)
	n, err = s.Update(ctx, "users",
		keyPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(49)))),
		[]source.SetClause{{Col: 0, Value: plus100}})
	if err != nil || n != 1 {
		t.Fatalf("key update = %d, %v", n, err)
	}
	info, _ = s.TableInfo(ctx, "users")
	if info.RowCount != 50 {
		t.Errorf("rows after key move = %d, want 50", info.RowCount)
	}
	q := source.NewScan("users")
	q.Filter = keyPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(149))))
	it, _ := s.Execute(ctx, q)
	rows, _ := source.Drain(it)
	if len(rows) != 1 {
		t.Error("moved key not found")
	}
	// Delete.
	n, err = s.Delete(ctx, "users",
		keyPred(t, s, expr.NewBinary(expr.OpGe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(40)))))
	if err != nil || n != 10 {
		t.Fatalf("delete = %d, %v", n, err)
	}
}

func TestKVBucketErrors(t *testing.T) {
	s := New("x")
	sc := types.NewSchema(types.Column{Name: "k", Type: types.KindInt})
	if err := s.CreateBucket("b", sc, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b", sc, 0); err == nil {
		t.Error("duplicate bucket must error")
	}
	if err := s.CreateBucket("c", sc, 3); err == nil {
		t.Error("bad key column must error")
	}
	if _, err := s.Execute(ctx, source.NewScan("ghost")); err == nil {
		t.Error("unknown bucket must error")
	}
	names, _ := s.Tables(ctx)
	if len(names) != 1 {
		t.Errorf("Tables = %v", names)
	}
	if s.Capabilities().Filter != source.FilterKey {
		t.Error("kv capabilities must be FilterKey")
	}
}

func benchBucket(tb testing.TB, n int) *Store {
	tb.Helper()
	s := New("kv")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "cust", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
	)
	if err := s.CreateBucket("orders", schema, 0); err != nil {
		tb.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 997)), types.NewFloat(float64(i%1000) + 0.25)}
	}
	if _, err := s.Insert(ctx, "orders", rows); err != nil {
		tb.Fatal(err)
	}
	return s
}

// A whole-bucket scan sizes its result from the tree (and the limit)
// rather than growing it by doubling.
func TestKVScanAllAllocatesItsResultOnce(t *testing.T) {
	s := benchBucket(t, 5000)
	for _, limit := range []int64{-1, 7} {
		q := source.NewScan("orders")
		q.Limit = limit
		want := 5000
		if limit >= 0 {
			want = int(limit)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if n := scanAll(t, s, q); n != want {
				t.Fatalf("limit %d: %d rows", limit, n)
			}
		})
		// The result and the iterator; growing the result by doubling
		// is 14 more at 5 000 rows.
		if allocs > 4 {
			t.Errorf("limit %d: %v allocations", limit, allocs)
		}
	}
}

// BenchmarkScanAll is an unbounded scan of a 20 000-row bucket.
func BenchmarkScanAll(b *testing.B) {
	s := benchBucket(b, 20000)
	q := source.NewScan("orders")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := scanAll(b, s, q); n != 20000 {
			b.Fatalf("%d rows", n)
		}
	}
}

// scanAll runs q and counts its rows without keeping them.
func scanAll(tb testing.TB, s *Store, q *source.Query) int {
	it, err := s.Execute(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	defer it.Close()
	for n := 0; ; n++ {
		if _, err := it.Next(); err == io.EOF {
			return n
		} else if err != nil {
			tb.Fatal(err)
		}
	}
}

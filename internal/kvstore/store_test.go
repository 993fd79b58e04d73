package kvstore

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
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

// A scan borrows the tree: whole or to a limit it allocates its
// iterator and the rows it hands out, which a RowSlab carves.
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
		carved := testing.AllocsPerRun(10, func() {
			var slab types.RowSlab
			for range want {
				slab.Next(3)
			}
		})
		if allocs != 1+carved {
			t.Errorf("limit %d: %v allocations, want the iterator and a slab's %v", limit, allocs, carved)
		}
	}
}

// The same objects and the same bytes over 2 048 rows and over 4 096:
// the iterator and the one row it lends.
func TestLentScanAllocsDoNotGrowPerRow(t *testing.T) {
	full := source.NewScan("orders")
	measure := func(s *Store, want int) (objects, bytes uint64) {
		return source.Allocations(func() {
			it, err := s.Execute(ctx, full)
			if err != nil {
				t.Fatal(err)
			}
			source.Use(it, source.Lent)
			n := 0
			for ; err == nil; n++ {
				_, err = it.Next()
			}
			if err != io.EOF || n-1 != want {
				t.Fatalf("%d rows, %v; want %d", n-1, err, want)
			}
		})
	}
	objA, bytesA := measure(benchBucket(t, 2048), 2048)
	objB, bytesB := measure(benchBucket(t, 4096), 4096)
	if objA != objB || bytesA != bytesB || objA != 2 {
		t.Errorf("%v objects and %d B over 2 048 rows, %v and %d B over 4 096; want the iterator and its row", objA, bytesA, objB, bytesB)
	}
}

var (
	benchID     = expr.NewBoundColRef(0, types.KindInt, "id")
	benchAmount = expr.NewBoundColRef(2, types.KindFloat, "amount")
	// bumpAmount is SET amount = amount + 1.
	bumpAmount = []source.SetClause{{Col: 2, Value: expr.NewBinary(expr.OpAdd, benchAmount, expr.NewConst(types.NewFloat(1)))}}
)

func idIs(id int) expr.Expr {
	return expr.NewBinary(expr.OpEq, benchID, expr.NewConst(types.NewInt(int64(id))))
}

// updateOne is UPDATE orders SET amount = amount + 1 WHERE <one row>.
func updateOne(tb testing.TB, s *Store, where expr.Expr) {
	if n, err := s.Update(ctx, "orders", where, bumpAmount); err != nil || n != 1 {
		tb.Fatalf("update WHERE %s: %d rows, %v", where, n, err)
	}
}

// openScan opens q, reads one row and closes.
func openScan(tb testing.TB, s *Store, q *source.Query) {
	it, err := s.Execute(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		tb.Fatal(err)
	}
	it.Close()
}

// A write pays for a scan only when there is one: with no view taken
// an update allocates its rows and its list of changes (updateAllocs),
// so copies nothing; after a scan it copies the nodes from the root to
// the entry, and of the leaf the one vector it changes, once, whatever
// the bucket's size — and a lookup takes no view.
func TestWriteCopiesOnlyWhenViewed(t *testing.T) {
	const updateAllocs = 3 // the scratch row, the new row, the list of changes
	full := source.NewScan("orders")
	for _, n := range []int{1000, 100000} {
		s := benchBucket(t, n)
		tree := s.buckets["orders"].tree
		one, next := idIs(n/2), idIs(n/2+1)
		if got := testing.AllocsPerRun(20, func() { updateOne(t, s, one) }); got != updateAllocs {
			t.Errorf("%d rows, no view outstanding: an update allocates %v objects, want %v", n, got, updateAllocs)
		}
		lookup := &source.Query{Table: "orders", Filter: one, Limit: -1}
		alone := testing.AllocsPerRun(20, func() { openScan(t, s, lookup) })
		if got := testing.AllocsPerRun(20, func() { openScan(t, s, lookup); updateOne(t, s, one) }); got != alone+updateAllocs {
			t.Errorf("%d rows: a lookup allocates %v objects, a lookup and an update %v: the update copied for it", n, alone, got)
		}
		height := 1
		for nd := tree.root; !nd.leaf(); nd = nd.kids[0] {
			height++
		}
		// Every first update follows a new scan (its iterator and a
		// row), and so copies again: an internal node, its separators
		// and its children; the leaf, its vector headers and the vector
		// of the column it changes.
		got := testing.AllocsPerRun(20, func() {
			openScan(t, s, full)
			updateOne(t, s, one)
			updateOne(t, s, next) // the path is the writer's own now
		})
		if want := float64(2 + 2*updateAllocs + 3*(height-1) + 3); got > want {
			t.Errorf("%d rows: a scan and two updates allocate %v objects, want %v at most for a tree %d high", n, got, want, height)
		}
	}
}

// UPDATE decides every change before it applies any, and refuses what
// INSERT refuses: a row moved onto a key the bucket holds, two rows
// moved onto one key, a NULL key, a value its column cannot hold. What
// it stores is of the column's type, as what INSERT stores is.
func TestKVUpdateRefusesWhatInsertRefuses(t *testing.T) {
	s := New("kv")
	schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "v", Type: types.KindInt})
	if err := s.CreateBucket("t", schema, 0); err != nil {
		t.Fatal(err)
	}
	// A float that is whole is stored as the INT the column declares.
	if _, err := s.Insert(ctx, "t", []types.Row{{types.NewInt(1), types.NewFloat(10)}, {types.NewInt(2), types.NewInt(20)}, {types.NewInt(7), types.NewInt(70)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(ctx, "t", []types.Row{{types.NewInt(3), types.NewString("x")}}); err == nil {
		t.Error("INSERT of a STRING into an INT column was accepted")
	}
	id, v := expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewBoundColRef(1, types.KindInt, "v")
	num := func(i int64) expr.Expr { return expr.NewConst(types.NewInt(i)) }
	eq := func(i int64) expr.Expr { return expr.NewBinary(expr.OpEq, id, num(i)) }
	bucket := func() string {
		it, err := s.Execute(ctx, source.NewScan("t"))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := source.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r[0].Kind() != types.KindInt || r[1].Kind() != types.KindInt {
				t.Errorf("row %v holds a %s and a %s, the columns are INT", r, r[0].Kind(), r[1].Kind())
			}
		}
		return fmt.Sprint(rows)
	}
	before := bucket()
	for name, c := range map[string]struct {
		where expr.Expr
		set   []source.SetClause
		want  string
	}{
		"SET id = 1 WHERE id = 2":     {eq(2), []source.SetClause{{Col: 0, Value: num(1)}}, "duplicate key"},
		"SET id = 9 (every row)":      {nil, []source.SetClause{{Col: 0, Value: num(9)}}, "duplicate key"},
		"SET id = id + 5 (2 onto 7)":  {nil, []source.SetClause{{Col: 0, Value: expr.NewBinary(expr.OpAdd, id, num(5))}}, "duplicate key"},
		"SET id = NULL WHERE id = 2":  {eq(2), []source.SetClause{{Col: 0, Value: expr.NewConst(types.Null)}}, "NULL key"},
		"SET v = 'x' WHERE id = 2":    {eq(2), []source.SetClause{{Col: 1, Value: expr.NewConst(types.NewString("x"))}}, "coerce"},
		"SET v = 'x', one row passes": {expr.NewBinary(expr.OpGe, id, num(2)), []source.SetClause{{Col: 1, Value: expr.NewConst(types.NewString("x"))}}, "coerce"},
	} {
		n, err := s.Update(ctx, "t", c.where, c.set)
		if err == nil || !strings.Contains(err.Error(), c.want) || n != 0 {
			t.Errorf("%s: %d rows, %v; want an error about a %s", name, n, err, c.want)
		}
		if got := bucket(); got != before {
			t.Errorf("%s: the refused update left %s, the bucket was %s", name, got, before)
		}
	}
	// What is allowed: a free key, the key a row has, a value that
	// converts.
	if n, err := s.Update(ctx, "t", eq(2), []source.SetClause{{Col: 0, Value: num(3)}, {Col: 1, Value: expr.NewConst(types.NewFloat(21))}}); err != nil || n != 1 {
		t.Errorf("SET id = 3, v = 21.0 WHERE id = 2: %d rows, %v", n, err)
	}
	if n, err := s.Update(ctx, "t", nil, []source.SetClause{{Col: 0, Value: id}, {Col: 1, Value: expr.NewBinary(expr.OpAdd, v, num(1))}}); err != nil || n != 3 {
		t.Errorf("SET id = id, v = v + 1: %d rows, %v", n, err)
	}
	if got, want := bucket(), "[(1, 11) (3, 22) (7, 71)]"; got != want {
		t.Errorf("bucket = %s, want %s", got, want)
	}
}

// TestKVInsertIsAllOrNothing: an INSERT decides every row before it
// stores any, as an UPDATE does, so a batch that fails on its last row —
// a key an earlier row of the batch takes, a key the bucket holds, a NULL
// key, a value its column cannot hold — leaves the bucket as it was.
// Before, the rows ahead of the failing one stayed behind.
func TestKVInsertIsAllOrNothing(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "v", Type: types.KindInt})
	row := func(id, v types.Value) types.Row { return types.Row{id, v} }
	one, two := types.NewInt(1), types.NewInt(2)
	for name, c := range map[string]struct {
		last types.Row
		want string
	}{
		"the batch's own key":    {row(one, two), "duplicate key 1"},
		"a key the bucket holds": {row(two, one), "duplicate key 2"},
		"a NULL key":             {row(types.Null, one), "NULL key"},
		"a STRING into INT":      {row(types.NewInt(3), types.NewString("x")), "coerce"},
	} {
		s := New("kv")
		if err := s.CreateBucket("t", schema, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(ctx, "t", []types.Row{row(two, two)}); err != nil {
			t.Fatal(err)
		}
		n, err := s.Insert(ctx, "t", []types.Row{row(one, one), c.last})
		if err == nil || !strings.Contains(err.Error(), c.want) || n != 0 {
			t.Errorf("%s: %d rows, %v; want an error about %q", name, n, err, c.want)
		}
		if info, _ := s.TableInfo(ctx, "t"); info.RowCount != 1 {
			t.Errorf("%s: the refused batch left %d rows; the bucket held 1", name, info.RowCount)
		}
	}
}

// BenchmarkScanAll is an unbounded scan of a 20 000-row bucket, by a
// consumer that keeps its rows and by one that asks to be lent them:
// the bucket lends nothing, its rows are the committed ones either way.
func BenchmarkScanAll(b *testing.B) {
	s := benchBucket(b, 20000)
	q := source.NewScan("orders")
	for _, lent := range []bool{false, true} {
		b.Run(map[bool]string{false: "kept", true: "lent"}[lent], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it, err := s.Execute(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if lent {
					source.Use(it, source.Lent)
				}
				n := 0
				for ; err == nil; n++ {
					_, err = it.Next()
				}
				if err != io.EOF || n-1 != 20000 {
					b.Fatalf("%d rows, %v", n-1, err)
				}
			}
		})
	}
}

// benchWrite rewrites one row b.N times, each time after a full scan
// was opened, read one row of and closed, or with no scan at all. The
// update itself visits every entry, so read B/op and allocs/op: what a
// scan costs the write that follows it is the path from the root to the
// entry, whatever the bucket's size.
func benchWrite(b *testing.B, afterScan bool) {
	full := source.NewScan("orders")
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			s, one := benchBucket(b, n), idIs(n/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if afterScan {
					openScan(b, s, full)
				}
				updateOne(b, s, one)
			}
		})
	}
}

func BenchmarkWriteNoScan(b *testing.B)    { benchWrite(b, false) }
func BenchmarkWriteAfterScan(b *testing.B) { benchWrite(b, true) }

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

// TestKVWritesReadTheKeyRange: an UPDATE or a DELETE finds its rows
// through the filter's key range, as Execute does, and evaluates the rest
// of the filter over those rows only — here a conjunct ahead of the key's
// that counts how often it is evaluated.
func TestKVWritesReadTheKeyRange(t *testing.T) {
	s := New("kv")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
	)
	if err := s.CreateBucket("users", schema, 0); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 10000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("u")}
	}
	if _, err := s.Insert(ctx, "users", rows); err != nil {
		t.Fatal(err)
	}
	id, num := expr.NewColRef("", "id"), func(i int64) expr.Expr { return expr.NewConst(types.NewInt(i)) }
	renamed, err := expr.Bind(expr.NewConst(types.NewString("renamed")), schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  expr.Expr
		want int
	}{
		{expr.NewBinary(expr.OpEq, id, num(4321)), 1},
		{&expr.InList{E: id, List: []expr.Expr{num(7), num(8), num(9), num(20000)}}, 3},
		{expr.NewBinary(expr.OpAnd, expr.NewBinary(expr.OpGe, id, num(100)), expr.NewBinary(expr.OpLt, id, num(110))), 10},
	} {
		bound, err := expr.Bind(c.key, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, write := range []string{"UPDATE", "DELETE"} {
			counted := &evalCounter{}
			filter := expr.NewBinary(expr.OpAnd, counted, bound)
			var n int64
			if write == "UPDATE" {
				n, err = s.Update(ctx, "users", filter, []source.SetClause{{Col: 1, Value: renamed}})
			} else {
				n, err = s.Delete(ctx, "users", filter)
			}
			if err != nil || n != int64(c.want) || counted.n != c.want {
				t.Errorf("%s WHERE %s: %d rows, %v, the residual evaluated %d times; want %d rows, as many evaluations",
					write, filter, n, err, counted.n, c.want)
			}
		}
	}
	if info, _ := s.TableInfo(ctx, "users"); info.RowCount != 10000-14 {
		t.Errorf("%d rows left, want %d", info.RowCount, 10000-14)
	}
}

// evalCounter is a conjunct that is always true and counts how often it
// is evaluated.
type evalCounter struct{ n int }

func (c *evalCounter) ResultType() types.Kind { return types.KindBool }

func (c *evalCounter) Eval(types.Row) (types.Value, error) {
	c.n++
	return types.NewBool(true), nil
}

func (c *evalCounter) String() string { return "counted()" }

// TestBucketBytesPerRow: what a bucket of 20 000 orders rows (oid INT
// key, cust_id INT, amount FLOAT, region STRING) holds, a row, loaded in
// key order as the benchmark's fixture loads it, and shuffled. In order,
// every leaf but the last is full: 40 B of payload a row, and the leaf's
// headers and separator over 255 rows. Shuffled, a leaf split in two
// fills from half, and its vectors have room for a full leaf. Its
// ceiling is 10% above what it measured when leaves became columns.
func TestBucketBytesPerRow(t *testing.T) {
	const n = 20000
	schema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	regions := []string{"north", "south", "east", "west"}
	for _, c := range []struct {
		name     string
		shuffled bool
		ceiling  float64
	}{{"in key order", false, 64}, {"shuffled", true, 68}} {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 400)),
				types.NewFloat(float64(i*7919%1000) + 0.5), types.NewString(regions[i%len(regions)])}
		}
		if c.shuffled {
			rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		s := New("kv")
		if err := s.CreateBucket("orders", schema, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(ctx, "orders", rows); err != nil {
			t.Fatal(err)
		}
		rows = nil
		b := s.buckets["orders"]
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		b.tree = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		runtime.KeepAlive(s)
		perRow := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / n
		t.Logf("%s: the bucket holds %.1f B a row", c.name, perRow)
		if perRow > c.ceiling {
			t.Errorf("%s: the bucket holds %.1f B a row, want at most %.1f", c.name, perRow, c.ceiling)
		}
	}
}

// BenchmarkStats is Engine.Analyze's ask of one bucket: the statistics
// of a 20 000-row orders bucket holding relstore BenchmarkStats' rows
// (oid key, cust_id, amount, region), as source.CollectStats gathers
// them.
func BenchmarkStats(b *testing.B) {
	const n = 20000
	schema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	regions := []string{"north", "south", "east", "west", "mid", "nw", "se", "sw"}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % (n / 50))),
			types.NewFloat(float64(i*7919%1000) + 0.5), types.NewString(regions[i%len(regions)])}
	}
	s := New("kv")
	if err := s.CreateBucket("orders", schema, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Insert(ctx, "orders", rows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ts, err := source.CollectStats(ctx, s, "orders", schema.Len()); err != nil || ts.RowCount != n {
			b.Fatalf("%v, %v", ts, err)
		}
	}
}

// Stats reads what a drained full scan reads, to the bit: over NULLs, −0
// beside 0, and leaves split by a shuffled load and merged by deletes.
func TestStatsEqualADrainedScan(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	rows := func(keys []int) []types.Row {
		out := make([]types.Row, len(keys))
		for i, k := range keys {
			f, s := types.NewFloat(float64(k%13)/4), types.NewString(strings.Repeat("x", k%5))
			switch {
			case k%7 == 0:
				f = types.Null
			case k%11 == 0:
				f = types.NewFloat(math.Copysign(0, -1))
			}
			if k%3 == 0 {
				s = types.Null
			}
			out[i] = types.Row{types.NewInt(int64(k)), f, s}
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name  string
		write func(s *Store) error
	}{
		{"empty", func(*Store) error { return nil }},
		{"NULLs in key order", func(s *Store) error {
			keys := make([]int, 600)
			for i := range keys {
				keys[i] = i
			}
			_, err := s.Insert(ctx, "t", rows(keys))
			return err
		}},
		{"split and merged", func(s *Store) error {
			keys := rng.Perm(3000)
			if _, err := s.Insert(ctx, "t", rows(keys)); err != nil {
				return err
			}
			for _, k := range keys[:2000] {
				if _, err := s.Delete(ctx, "t", idIs(k)); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		s := New("kv")
		if err := s.CreateBucket("t", schema, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.write(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := s.Stats("t")
		if err != nil {
			t.Fatal(err)
		}
		it, err := s.Execute(ctx, source.NewScan("t"))
		if err != nil {
			t.Fatal(err)
		}
		drained, err := source.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.Collect(drained, schema.Len()); !stats.Identical(got, want) {
			t.Errorf("%s: Stats reads\n%v\na drained scan\n%v", c.name, got, want)
		}
	}
}

package relstore

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

var ctx = context.Background()

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := New("db1")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "cat", Type: types.KindString},
		types.Column{Name: "val", Type: types.KindFloat},
	)
	if err := s.CreateTable("items", schema, 0); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	cats := []string{"a", "b", "c"}
	for i := 0; i < 30; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(cats[i%3]),
			types.NewFloat(float64(i) * 0.5),
		})
	}
	if _, err := s.Insert(ctx, "items", rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func itemsPred(t *testing.T, s *Store, e expr.Expr) expr.Expr {
	t.Helper()
	info, err := s.TableInfo(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	b, err := expr.Bind(e, info.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runQuery(t *testing.T, s *Store, q *source.Query) []types.Row {
	t.Helper()
	it, err := s.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCreateTableErrors(t *testing.T) {
	s := New("x")
	sc := types.NewSchema(types.Column{Name: "a", Type: types.KindInt})
	if err := s.CreateTable("t", sc); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", sc); err == nil {
		t.Error("duplicate table must error")
	}
	if err := s.CreateTable("u", sc, 5); err == nil {
		t.Error("bad key column must error")
	}
	if _, err := s.TableInfo(ctx, "ghost"); err == nil {
		t.Error("unknown table must error")
	}
}

func TestScanAndFilter(t *testing.T) {
	s := newTestStore(t)
	rows := runQuery(t, s, source.NewScan("items"))
	if len(rows) != 30 {
		t.Fatalf("scan = %d rows", len(rows))
	}
	q := source.NewScan("items")
	q.Filter = itemsPred(t, s, expr.NewBinary(expr.OpEq,
		expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a"))))
	rows = runQuery(t, s, q)
	if len(rows) != 10 {
		t.Errorf("filtered = %d rows, want 10", len(rows))
	}
}

func TestIndexedPointLookup(t *testing.T) {
	s := newTestStore(t)
	q := source.NewScan("items")
	q.Filter = itemsPred(t, s, expr.NewBinary(expr.OpEq,
		expr.NewColRef("", "id"), expr.NewConst(types.NewInt(7))))
	rows := runQuery(t, s, q)
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Errorf("point lookup = %v", rows)
	}
	// Equality + residual conjunct still narrows through the index.
	q.Filter = itemsPred(t, s, expr.NewBinary(expr.OpAnd,
		expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(7))),
		expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("zzz")))))
	if rows := runQuery(t, s, q); len(rows) != 0 {
		t.Errorf("conjunct lookup = %v", rows)
	}
}

func TestProjectionSortLimit(t *testing.T) {
	s := newTestStore(t)
	q := source.NewScan("items")
	q.Columns = []int{2, 0}
	q.OrderBy = []source.OrderSpec{{Col: 1, Desc: true}}
	q.Limit = 3
	rows := runQuery(t, s, q)
	if len(rows) != 3 {
		t.Fatalf("limit = %d rows", len(rows))
	}
	if rows[0][1].Int() != 29 || rows[2][1].Int() != 27 {
		t.Errorf("order/proj = %v", rows)
	}
	if len(rows[0]) != 2 {
		t.Errorf("projection width = %d", len(rows[0]))
	}
}

func TestAggregationPushdown(t *testing.T) {
	s := newTestStore(t)
	q := source.NewScan("items")
	q.GroupBy = []int{1}
	q.Aggs = []source.AggSpec{
		{Kind: expr.AggCount, Star: true},
		{Kind: expr.AggSum, Col: 0},
	}
	q.OrderBy = []source.OrderSpec{{Col: 0}}
	rows := runQuery(t, s, q)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// cat "a": ids 0,3,...,27 → count 10, sum 135.
	if rows[0][0].Str() != "a" || rows[0][1].Int() != 10 || rows[0][2].Int() != 135 {
		t.Errorf("group a = %v", rows[0])
	}
	// Global aggregate over empty filter result.
	q2 := source.NewScan("items")
	q2.Filter = itemsPred(t, s, expr.NewBinary(expr.OpGt,
		expr.NewColRef("", "id"), expr.NewConst(types.NewInt(1000))))
	q2.Aggs = []source.AggSpec{{Kind: expr.AggCount, Star: true}}
	rows = runQuery(t, s, q2)
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("empty global agg = %v", rows)
	}
}

func TestInsertValidation(t *testing.T) {
	s := newTestStore(t)
	// Wrong arity.
	if _, err := s.Insert(ctx, "items", []types.Row{{types.NewInt(1)}}); err == nil {
		t.Error("short row must error")
	}
	// Coercible value is accepted.
	if _, err := s.Insert(ctx, "items", []types.Row{
		{types.NewInt(100), types.NewString("z"), types.NewInt(7)}, // int → float
	}); err != nil {
		t.Errorf("coercible insert: %v", err)
	}
	// Duplicate primary key.
	if _, err := s.Insert(ctx, "items", []types.Row{
		{types.NewInt(100), types.NewString("w"), types.NewFloat(1)},
	}); err == nil {
		t.Error("duplicate key must error")
	}
	// Un-coercible value.
	if _, err := s.Insert(ctx, "items", []types.Row{
		{types.NewString("junk"), types.NewString("w"), types.NewFloat(1)},
	}); err == nil {
		t.Error("uncoercible insert must error")
	}
	// NULL primary key, refused as kvstore refuses it.
	if n, err := s.Insert(ctx, "items", []types.Row{
		{types.Null, types.NewString("x"), types.NewFloat(1)},
	}); err == nil || !strings.Contains(err.Error(), "NULL key") || n != 0 {
		t.Errorf("NULL-key insert: %d rows, %v; want a NULL-key error", n, err)
	}
}

func TestUpdateDelete(t *testing.T) {
	s := newTestStore(t)
	info, _ := s.TableInfo(ctx, "items")
	setVal, err := expr.Bind(
		expr.NewBinary(expr.OpMul, expr.NewColRef("", "val"), expr.NewConst(types.NewFloat(2))),
		info.Schema)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Update(ctx, "items",
		itemsPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a")))),
		[]source.SetClause{{Col: 2, Value: setVal}})
	if err != nil || n != 10 {
		t.Fatalf("update = %d, %v", n, err)
	}
	q := source.NewScan("items")
	q.Filter = itemsPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(3))))
	rows := runQuery(t, s, q)
	if rows[0][2].Float() != 3.0 { // was 1.5, doubled
		t.Errorf("updated val = %v", rows[0][2])
	}
	n, err = s.Delete(ctx, "items",
		itemsPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("b")))))
	if err != nil || n != 10 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if rows := runQuery(t, s, source.NewScan("items")); len(rows) != 20 {
		t.Errorf("after delete = %d rows", len(rows))
	}
	info, _ = s.TableInfo(ctx, "items")
	if info.RowCount != 20 {
		t.Errorf("RowCount = %d", info.RowCount)
	}
}

func TestTxCommitAbort(t *testing.T) {
	s := newTestStore(t)
	// Bind predicates up front: the store lock is held for the duration
	// of a writing transaction, so TableInfo would self-deadlock below.
	delPred := itemsPred(t, s, expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(5))))
	tx, err := s.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, "items", []types.Row{
		{types.NewInt(500), types.NewString("x"), types.NewFloat(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(ctx, "items", delPred); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	rows := runQuery(t, s, source.NewScan("items"))
	if len(rows) != 30 {
		t.Errorf("after abort = %d rows, want 30 (rollback)", len(rows))
	}
	// Aborting twice is fine; committing after abort is not.
	if err := tx.Abort(ctx); err != nil {
		t.Error("second abort must be idempotent")
	}
	if err := tx.Commit(ctx); err == nil {
		t.Error("commit after abort must error")
	}

	tx2, _ := s.BeginTx(ctx)
	tx2.Insert(ctx, "items", []types.Row{{types.NewInt(501), types.NewString("x"), types.NewFloat(1)}})
	if err := tx2.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if rows := runQuery(t, s, source.NewScan("items")); len(rows) != 31 {
		t.Errorf("after commit = %d rows", len(rows))
	}
}

func TestTxUpdateRollback(t *testing.T) {
	s := newTestStore(t)
	info, _ := s.TableInfo(ctx, "items")
	one, _ := expr.Bind(expr.NewConst(types.NewFloat(999)), info.Schema)
	tx, _ := s.BeginTx(ctx)
	if _, err := tx.Update(ctx, "items", nil, []source.SetClause{{Col: 2, Value: one}}); err != nil {
		t.Fatal(err)
	}
	tx.Abort(ctx)
	q := source.NewScan("items")
	q.Filter = itemsPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "val"), expr.NewConst(types.NewFloat(999))))
	if rows := runQuery(t, s, q); len(rows) != 0 {
		t.Errorf("update not rolled back: %d rows", len(rows))
	}
}

// An UPDATE that moves a row onto another row's key is refused as the
// INSERT of that key is, and undone: the rows it had already rewritten
// read as before. A row may be given the key it has.
func TestUpdateRefusesDuplicateKey(t *testing.T) {
	s := New("db")
	schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "v", Type: types.KindInt})
	if err := s.CreateTable("t", schema, 0); err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{{types.NewInt(1), types.NewInt(10)}, {types.NewInt(2), types.NewInt(20)}, {types.NewInt(7), types.NewInt(70)}}
	if _, err := s.Insert(ctx, "t", rows); err != nil {
		t.Fatal(err)
	}
	id, num := expr.NewBoundColRef(0, types.KindInt, "id"), func(i int64) expr.Expr { return expr.NewConst(types.NewInt(i)) }
	table := func() string { return fmt.Sprint(runQuery(t, s, source.NewScan("t"))) }
	before := table()

	// UPDATE t SET id = 1 WHERE id = 2.
	n, err := s.Update(ctx, "t", expr.NewBinary(expr.OpEq, id, num(2)), []source.SetClause{{Col: 0, Value: num(1)}})
	if err == nil || !strings.Contains(err.Error(), "duplicate key") || n != 0 {
		t.Errorf("a SET onto a key that exists: %d rows, %v; want a duplicate-key error", n, err)
	}
	// UPDATE t SET id = id + 5, v = 0 rewrites 1 as 6 before 2 becomes
	// 7, which is there; SET id = id * 7 fails on its first row.
	for _, set := range [][]source.SetClause{
		{{Col: 0, Value: expr.NewBinary(expr.OpAdd, id, num(5))}, {Col: 1, Value: num(0)}},
		{{Col: 0, Value: expr.NewBinary(expr.OpMul, id, num(7))}, {Col: 1, Value: num(0)}},
	} {
		if n, err := s.Update(ctx, "t", nil, set); err == nil || n != 0 {
			t.Errorf("SET id = %s: %d rows, %v; want a duplicate-key error", set[0].Value, n, err)
		}
		if got := table(); got != before {
			t.Errorf("a refused update left %s, the table was %s", got, before)
		}
	}
	// UPDATE t SET id = NULL WHERE id = 7 is refused as kvstore refuses
	// it.
	n, err = s.Update(ctx, "t", expr.NewBinary(expr.OpEq, id, num(7)), []source.SetClause{{Col: 0, Value: expr.NewConst(types.Null)}})
	if err == nil || !strings.Contains(err.Error(), "NULL key") || n != 0 {
		t.Errorf("SET id = NULL: %d rows, %v; want a NULL-key error", n, err)
	}
	if got := table(); got != before {
		t.Errorf("a refused update left %s, the table was %s", got, before)
	}
	// The row being replaced is not its own duplicate.
	if n, err := s.Update(ctx, "t", nil, []source.SetClause{{Col: 0, Value: id}, {Col: 1, Value: num(5)}}); err != nil || n != 3 {
		t.Errorf("SET id = id: %d rows, %v", n, err)
	}
	if n, err := s.Update(ctx, "t", expr.NewBinary(expr.OpEq, id, num(2)), []source.SetClause{{Col: 0, Value: num(3)}}); err != nil || n != 1 {
		t.Errorf("a SET onto a free key: %d rows, %v", n, err)
	}
	if got, want := table(), "[(1, 5) (3, 5) (7, 5)]"; got != want {
		t.Errorf("table = %s, want %s", got, want)
	}
}

// TestCommitIsIdempotent: a coordinator whose commit acknowledgement was
// lost commits again, and the second commit succeeds without applying
// anything twice.
func TestCommitIsIdempotent(t *testing.T) {
	s := newTestStore(t)
	tx, _ := s.BeginTx(ctx)
	if _, err := tx.Insert(ctx, "items", []types.Row{{types.NewInt(601), types.NewString("x"), types.NewFloat(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	if info, _ := s.TableInfo(ctx, "items"); info.RowCount != 31 {
		t.Errorf("rows after two commits of one insert = %d, want 31", info.RowCount)
	}
	if err := tx.Abort(ctx); err == nil {
		t.Error("abort after commit must error")
	}
}

// TestStatsDoesNotStallWriters: Stats sorts a borrowed view of the table
// with no lock held, so an Insert issued while it runs returns first.
func TestStatsDoesNotStallWriters(t *testing.T) {
	const n, batch = 400_000, 10_000
	s := New("big")
	if err := s.CreateTable("t", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindInt},
		types.Column{Name: "v", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += batch {
		rows := make([]types.Row, batch)
		for i := range rows {
			k := int64(lo + i)
			rows[i] = types.Row{types.NewInt(k * 7919 % n), types.NewInt(k % 1000), types.NewFloat(float64(k) / 3)}
		}
		if _, err := s.Insert(ctx, "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	statsDone := make(chan time.Time, 1)
	go func() {
		if st, err := s.Stats("t"); err != nil || st.RowCount != n {
			t.Errorf("stats: %v, %v", st, err)
		}
		statsDone <- time.Now()
	}()
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	if _, err := s.Insert(ctx, "t", []types.Row{{types.NewInt(-1), types.NewInt(0), types.NewFloat(0)}}); err != nil {
		t.Fatal(err)
	}
	inserted := time.Now()
	if done := <-statsDone; !inserted.Before(done) {
		t.Errorf("an Insert issued beside Stats took %v and returned %v after it", inserted.Sub(start), inserted.Sub(done))
	}
}

func TestStatsCollectionAndInvalidation(t *testing.T) {
	s := newTestStore(t)
	st, err := s.Stats("items")
	if err != nil || st.RowCount != 30 {
		t.Fatalf("stats = %v, %v", st, err)
	}
	if st.Columns[1].NDV != 3 {
		t.Errorf("cat NDV = %d", st.Columns[1].NDV)
	}
	s.Delete(ctx, "items", itemsPred(t, s, expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(10)))))
	st, _ = s.Stats("items")
	if st.RowCount != 20 {
		t.Errorf("stats after deleting 10 of 30 rows count %d", st.RowCount)
	}
}

// Stats reads what a drained full scan reads, to the bit: over NULLs,
// −0 beside 0, rows across chunks, and the tombstones a DELETE and an
// aborted INSERT leave.
func TestStatsEqualADrainedScan(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	rows := func(lo, n int) []types.Row {
		out := make([]types.Row, n)
		for i := range out {
			k := lo + i
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
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	for _, c := range []struct {
		name  string
		write func(s *Store) error
	}{
		{"empty", func(*Store) error { return nil }},
		{"NULLs in one chunk", func(s *Store) error {
			_, err := s.Insert(ctx, "t", rows(0, 100))
			return err
		}},
		{"tombstones across chunks", func(s *Store) error {
			if _, err := s.Insert(ctx, "t", rows(0, 600)); err != nil {
				return err
			}
			if _, err := s.Delete(ctx, "t", expr.NewBinary(expr.OpOr, expr.NewBinary(expr.OpLt, id, expr.NewConst(types.NewInt(40))),
				expr.NewBinary(expr.OpGe, id, expr.NewConst(types.NewInt(250))))); err != nil {
				return err
			}
			tx, _ := s.BeginTx(ctx)
			if _, err := tx.(*Tx).Insert(ctx, "t", rows(600, 50)); err != nil {
				return err
			}
			return tx.Abort(ctx)
		}},
	} {
		s := New("db")
		if err := s.CreateTable("t", schema, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.write(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := s.Stats("t")
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.Collect(runQuery(t, s, source.NewScan("t")), schema.Len()); !stats.Identical(got, want) {
			t.Errorf("%s: Stats reads\n%v\na drained scan\n%v", c.name, got, want)
		}
	}
}

func TestCreateIndexBackfillAndMaintenance(t *testing.T) {
	s := newTestStore(t)
	if err := s.CreateIndex("items", 1); err != nil {
		t.Fatal(err)
	}
	q := source.NewScan("items")
	q.Filter = itemsPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("b"))))
	if rows := runQuery(t, s, q); len(rows) != 10 {
		t.Errorf("indexed cat scan = %d", len(rows))
	}
	// Update moves a row across index buckets.
	info, _ := s.TableInfo(ctx, "items")
	newCat, _ := expr.Bind(expr.NewConst(types.NewString("b")), info.Schema)
	s.Update(ctx, "items",
		itemsPred(t, s, expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(0)))),
		[]source.SetClause{{Col: 1, Value: newCat}})
	if rows := runQuery(t, s, q); len(rows) != 11 {
		t.Errorf("after cross-bucket update = %d, want 11", len(rows))
	}
	// Idempotent index creation.
	if err := s.CreateIndex("items", 1); err != nil {
		t.Error(err)
	}
	if err := s.CreateIndex("items", 9); err == nil {
		t.Error("bad index column must error")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	s := newTestStore(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					it, err := s.Execute(ctx, source.NewScan("items"))
					if err != nil {
						errs <- err
						return
					}
					if _, err := source.Drain(it); err != nil {
						errs <- err
						return
					}
				} else {
					id := int64(1000 + g*100 + i)
					if _, err := s.Insert(ctx, "items", []types.Row{
						{types.NewInt(id), types.NewString("p"), types.NewFloat(0)},
					}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	info, _ := s.TableInfo(ctx, "items")
	if info.RowCount != 30+4*20 {
		t.Errorf("final rows = %d", info.RowCount)
	}
}

func TestCapabilities(t *testing.T) {
	s := New("x")
	c := s.Capabilities()
	if c.Filter != source.FilterFull || !c.Aggregate || !c.Txn || !c.Write {
		t.Errorf("caps = %v", c)
	}
}

func TestExecuteUnknownTable(t *testing.T) {
	s := New("x")
	if _, err := s.Execute(ctx, source.NewScan("nope")); err == nil {
		t.Error("unknown table must error")
	}
}

func TestTablesList(t *testing.T) {
	s := newTestStore(t)
	names, err := s.Tables(ctx)
	if err != nil || len(names) != 1 || names[0] != "items" {
		t.Errorf("Tables = %v, %v", names, err)
	}
}

func TestSnapshotIterationDuringWrite(t *testing.T) {
	// Execute materializes under RLock; rows fetched before a write keep
	// their values.
	s := newTestStore(t)
	it, err := s.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	s.Delete(ctx, "items", nil)
	rows, err := source.Drain(it)
	if err != nil || len(rows) != 30 {
		t.Errorf("snapshot broken: %d rows, %v", len(rows), err)
	}
}

func ExampleStore() {
	s := New("demo")
	s.CreateTable("kv", types.NewSchema(
		types.Column{Name: "k", Type: types.KindInt},
		types.Column{Name: "v", Type: types.KindString},
	), 0)
	s.Insert(context.Background(), "kv", []types.Row{
		{types.NewInt(1), types.NewString("one")},
	})
	it, _ := s.Execute(context.Background(), source.NewScan("kv"))
	rows, _ := source.Drain(it)
	fmt.Println(rows[0])
	// Output: (1, one)
}

func TestInListIndexProbe(t *testing.T) {
	s := newTestStore(t)
	q := source.NewScan("items")
	q.Filter = itemsPred(t, s, &expr.InList{
		E: expr.NewColRef("", "id"),
		List: []expr.Expr{
			expr.NewConst(types.NewInt(3)),
			expr.NewConst(types.NewInt(7)),
			expr.NewConst(types.NewInt(7)),    // duplicate must not dup rows
			expr.NewConst(types.NewInt(9999)), // miss
		},
	})
	rows := runQuery(t, s, q)
	if len(rows) != 2 {
		t.Fatalf("IN probe = %d rows, want 2: %v", len(rows), rows)
	}
	// NOT IN must not use the probe (it would be wrong).
	q.Filter = itemsPred(t, s, &expr.InList{
		E:      expr.NewColRef("", "id"),
		List:   []expr.Expr{expr.NewConst(types.NewInt(3))},
		Negate: true,
	})
	rows = runQuery(t, s, q)
	if len(rows) != 29 {
		t.Fatalf("NOT IN = %d rows, want 29", len(rows))
	}
}

// TestProjectedRowsDoNotAlias: a projection's rows are carved from one
// slab per result. Each must be cut to its own length — an append to
// one may not reach the next — a write to one may not reach the table,
// and they stay the caller's after the iterator is closed and the table
// is written to.
func TestProjectedRowsDoNotAlias(t *testing.T) {
	s := newTestStore(t)
	q := source.NewScan("items")
	q.Columns = []int{2, 0}
	it, err := s.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for {
		r, err := it.Next()
		if err != nil {
			break
		}
		if cap(r) != len(r) {
			t.Fatalf("row %d: cap %d != len %d", len(rows), cap(r), len(r))
		}
		_ = append(r, types.NewString("intruder"))
		rows = append(rows, r)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("projected %d rows, want 30", len(rows))
	}
	rows[3][0] = types.NewString("scribble")
	if got := runQuery(t, s, source.NewScan("items"))[3]; !got[2].Equal(types.NewFloat(1.5)) {
		t.Errorf("a write to a projected row reached the table: %v", got)
	}
	rows[3][0] = types.NewFloat(1.5)
	if _, err := s.Delete(ctx, "items", nil); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		want := types.Row{types.NewFloat(float64(i) * 0.5), types.NewInt(int64(i))}
		if !r.Equal(want) {
			t.Errorf("row %d = %v, want %v", i, r, want)
		}
	}
}

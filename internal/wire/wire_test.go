package wire

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gis/internal/expr"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

var ctx = context.Background()

// startRelServer serves a populated relstore and returns a connected
// client (both cleaned up with the test).
func startRelServer(t testing.TB, n int, opts ...Option) (*relstore.Store, *Client) {
	t.Helper()
	st := itemsStore(t, n)
	srv, err := Serve(context.Background(), "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return st, cl
}

// itemsStore is a relstore holding items(id INT key, cat STRING, val
// FLOAT) with n rows.
func itemsStore(t testing.TB, n int) *relstore.Store {
	t.Helper()
	st := relstore.New("remote1")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "cat", Type: types.KindString},
		types.Column{Name: "val", Type: types.KindFloat},
	)
	if err := st.CreateTable("items", schema, 0); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("c%d", i%5)),
			types.NewFloat(float64(i)),
		})
	}
	if _, err := st.Insert(ctx, "items", rows); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRemoteMetadata(t *testing.T) {
	_, cl := startRelServer(t, 10, WithName("r1"))
	if cl.Name() != "r1" {
		t.Errorf("Name = %q", cl.Name())
	}
	tables, err := cl.Tables(ctx)
	if err != nil || len(tables) != 1 || tables[0] != "items" {
		t.Errorf("Tables = %v, %v", tables, err)
	}
	info, err := cl.TableInfo(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema.Len() != 3 || info.RowCount != 10 || len(info.KeyColumns) != 1 {
		t.Errorf("info = %+v", info)
	}
	caps := cl.Capabilities()
	if caps.Filter != source.FilterFull || !caps.Txn {
		t.Errorf("caps = %v", caps)
	}
	if _, err := cl.TableInfo(ctx, "ghost"); err == nil {
		t.Error("remote error must propagate")
	}
}

// TestRebindBuildsTheFilterOnce: a component server gives a shipped
// filter back its operator types and function references in the tree it
// decoded, positions as they arrived, and reads the table's schema from
// the description its connection already holds. On a warmed connection
// the nodes of a sub-query filtering `id = ?` are the arena's and its
// table's name is the connection's, so decoding and rebinding it costs
// one object, the string its reference's name is placed in; nodes of
// their own and a fresh table info took seven.
func TestRebindBuildsTheFilterOnce(t *testing.T) {
	st, _ := startRelServer(t, 10)
	srv := &Server{src: st}
	// As the mediator ships it: bound, under the global schema's name.
	var e Encoder
	if err := e.Query(&source.Query{Table: "items", Limit: -1, Filter: expr.NewBinary(expr.OpEq,
		&expr.ColRef{Name: "item_id", Index: 0, Type: types.KindInt}, expr.NewConst(types.NewInt(7)))}); err != nil {
		t.Fatal(err)
	}
	conn := &connState{}
	rebind := func() *source.Query {
		q, err := conn.request(&Decoder{buf: e.Bytes()}).Query()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.bindQuery(ctx, conn, q); err != nil {
			t.Fatal(err)
		}
		return q
	}
	it, err := st.Execute(ctx, rebind())
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := source.Drain(it); err != nil || len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("rebound filter selects %v, %v; want the row with id 7", rows, err)
	}
	conn.endRequest()
	n := testing.AllocsPerRun(100, func() { rebind(); conn.endRequest() })
	t.Logf("decode + rebind of `id = ?`: %.0f objects", n)
	if n > 1 {
		t.Errorf("decode + rebind of `id = ?` allocates %.0f objects, want at most 1", n)
	}
}

func TestRemoteExecute(t *testing.T) {
	_, cl := startRelServer(t, 1000)
	// Full scan streams in batches (1000 > rowBatchSize).
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil || len(rows) != 1000 {
		t.Fatalf("scan = %d rows, %v", len(rows), err)
	}
	// Pushed filter with a function call (requires server-side rebind).
	info, _ := cl.TableInfo(ctx, "items")
	filter, err := expr.Bind(expr.NewBinary(expr.OpEq,
		expr.NewCall("MOD", expr.NewColRef("", "id"), expr.NewConst(types.NewInt(2))),
		expr.NewConst(types.NewInt(0))), info.Schema)
	if err != nil {
		// MOD isn't registered as a function — use % operator instead.
		filter, err = expr.Bind(expr.NewBinary(expr.OpEq,
			expr.NewBinary(expr.OpMod, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(2))),
			expr.NewConst(types.NewInt(0))), info.Schema)
		if err != nil {
			t.Fatal(err)
		}
	}
	q := source.NewScan("items")
	q.Filter = filter
	it, err = cl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = source.Drain(it)
	if err != nil || len(rows) != 500 {
		t.Fatalf("filtered = %d rows, %v", len(rows), err)
	}
	// Aggregation pushdown over the wire.
	q = source.NewScan("items")
	q.GroupBy = []int{1}
	q.Aggs = []source.AggSpec{{Kind: expr.AggCount, Star: true}}
	q.OrderBy = []source.OrderSpec{{Col: 0}}
	it, err = cl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = source.Drain(it)
	if err != nil || len(rows) != 5 || rows[0][1].Int() != 200 {
		t.Fatalf("agg = %v, %v", rows, err)
	}
	// Error propagation from Execute.
	if _, err := cl.Execute(ctx, source.NewScan("ghost")); err == nil {
		t.Error("remote execute error must propagate")
	}
	// The connection pool must still work after an error.
	it, err = cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	source.Drain(it)
}

func TestRemoteConcurrentExecutes(t *testing.T) {
	_, cl := startRelServer(t, 500)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it, err := cl.Execute(ctx, source.NewScan("items"))
			if err != nil {
				errs <- err
				return
			}
			rows, err := source.Drain(it)
			if err != nil {
				errs <- err
				return
			}
			if len(rows) != 500 {
				errs <- fmt.Errorf("got %d rows", len(rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRemoteWrites(t *testing.T) {
	st, cl := startRelServer(t, 10)
	n, err := cl.Insert(ctx, "items", []types.Row{
		{types.NewInt(100), types.NewString("new"), types.NewFloat(1)},
	})
	if err != nil || n != 1 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	info, _ := cl.TableInfo(ctx, "items")
	if info.RowCount != 11 {
		t.Errorf("rows after insert = %d", info.RowCount)
	}
	filter, _ := expr.Bind(expr.NewBinary(expr.OpEq,
		expr.NewColRef("", "id"), expr.NewConst(types.NewInt(100))), info.Schema)
	set, _ := expr.Bind(expr.NewConst(types.NewFloat(42)), info.Schema)
	n, err = cl.Update(ctx, "items", filter, []source.SetClause{{Col: 2, Value: set}})
	if err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	n, err = cl.Delete(ctx, "items", filter)
	if err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	localInfo, _ := st.TableInfo(ctx, "items")
	if localInfo.RowCount != 10 {
		t.Errorf("store rows = %d", localInfo.RowCount)
	}
	// Duplicate key error propagates.
	if _, err := cl.Insert(ctx, "items", []types.Row{
		{types.NewInt(5), types.NewString("dup"), types.NewFloat(0)},
	}); err == nil {
		t.Error("remote duplicate key must error")
	}
}

func TestRemoteTransaction(t *testing.T) {
	_, cl := startRelServer(t, 10)
	tx, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, "items", []types.Row{
		{types.NewInt(200), types.NewString("tx"), types.NewFloat(0)},
	}); err != nil {
		t.Fatal(err)
	}
	// A second write of the same transaction: the server looks the
	// table's schema up again, now with this transaction holding the
	// store — which used to park the handler on its own lock for good.
	info, _ := cl.TableInfo(ctx, "items")
	filter, _ := expr.Bind(expr.NewBinary(expr.OpEq,
		expr.NewColRef("", "id"), expr.NewConst(types.NewInt(200))), info.Schema)
	within(t, 5*time.Second, "second write of one transaction", func() {
		if n, err := tx.Delete(ctx, "items", filter); err != nil || n != 1 {
			t.Errorf("delete inside the transaction = %d, %v", n, err)
		}
		if _, err := tx.Insert(ctx, "items", itemRow(200)); err != nil {
			t.Error(err)
		}
	})
	if err := tx.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	info, _ = cl.TableInfo(ctx, "items")
	if info.RowCount != 11 {
		t.Errorf("rows after remote tx = %d", info.RowCount)
	}
	// Abort path.
	tx2, _ := cl.BeginTx(ctx)
	tx2.Insert(ctx, "items", []types.Row{
		{types.NewInt(201), types.NewString("tx"), types.NewFloat(0)},
	})
	if err := tx2.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	info, _ = cl.TableInfo(ctx, "items")
	if info.RowCount != 11 {
		t.Errorf("rows after abort = %d", info.RowCount)
	}
	// Operations on a finished tx error.
	if _, err := tx2.Insert(ctx, "items", nil); err == nil {
		t.Error("write on aborted tx must error")
	}
}

func TestRemoteStats(t *testing.T) {
	_, cl := startRelServer(t, 100)
	ts, err := cl.Stats("items")
	if err != nil {
		t.Fatal(err)
	}
	if ts.RowCount != 100 || ts.Columns[1].NDV != 5 {
		t.Errorf("remote stats = %+v", ts)
	}
	if ts.Columns[0].Hist == nil || ts.Columns[0].Hist.Total != 100 {
		t.Error("histogram must travel")
	}
}

func TestSimulatedLatency(t *testing.T) {
	_, cl := startRelServer(t, 1, WithSimLink(SimLink{Latency: 20 * time.Millisecond}))
	start := time.Now()
	if _, err := cl.Tables(ctx); err != nil {
		t.Fatal(err)
	}
	// One round trip = uplink + downlink = 2 × 20ms.
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("round trip %v, want >= 40ms", d)
	}
}

func TestStreamCloseEarly(t *testing.T) {
	_, cl := startRelServer(t, 2000)
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// Client still usable afterwards (fresh connection).
	it, err = cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil || len(rows) != 2000 {
		t.Fatalf("after early close: %d rows, %v", len(rows), err)
	}
}

func TestContextCancellation(t *testing.T) {
	_, cl := startRelServer(t, 10)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := cl.Execute(cctx, source.NewScan("items")); err == nil {
		t.Error("cancelled context must error")
	}
	if _, err := cl.Tables(cctx); err == nil {
		t.Error("cancelled context must error")
	}
}

func TestServerShutdownDuringStream(t *testing.T) {
	st := relstore.New("bigsrv")
	schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt})
	if err := st.CreateTable("t", schema, 0); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i))})
	}
	st.Insert(ctx, "t", rows)
	srv, err := Serve(context.Background(), "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	it, err := cl.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	// Read one batch, then kill the server.
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The stream must fail (or finish from buffered batches) but never
	// hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := it.Next(); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream hung after server shutdown")
	}
}

func TestClientDialFailure(t *testing.T) {
	if _, err := DialContext(ctx, "127.0.0.1:1"); err == nil {
		t.Error("dialing a dead address must error")
	}
}

// TestStreamRowsOutliveIterator: rows handed out by a stream are kept by
// Drain and by a hash join's build side after the stream has moved on.
// They must not share capacity with their neighbours in the frame's
// slab, nor change when later frames are decoded or the stream closes.
func TestStreamRowsOutliveIterator(t *testing.T) {
	st, cl := startRelServer(t, 3*rowBatchSize+17)
	q := source.NewScan("items")
	q.OrderBy = []source.OrderSpec{{Col: 0}}
	local, err := st.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := source.Drain(local)
	if err != nil {
		t.Fatal(err)
	}
	it, err := cl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var got []types.Row
	for {
		r, err := it.Next()
		if err != nil {
			break
		}
		if cap(r) != len(r) {
			t.Fatalf("row %d: cap %d != len %d", len(got), cap(r), len(r))
		}
		_ = append(r, types.NewString("intruder"))
		got = append(got, r)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v after the stream closed, want %v", i, got[i], want[i])
		}
	}
}

// TestRemoteTimeSentinelsMatchLocal: the answer must not depend on the
// wrapper class. The 0001-01-01 and 9999-12-31 sentinel dates lie
// outside what an int64 of nanoseconds can carry, which is how TIME
// used to cross the wire.
func TestRemoteTimeSentinelsMatchLocal(t *testing.T) {
	st := relstore.New("dates")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "at", Type: types.KindTime},
	)
	if err := st.CreateTable("spans", schema, 0); err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{
		{types.NewInt(1), types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC))},
		{types.NewInt(2), types.NewTime(time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC))},
		{types.NewInt(3), types.NewTime(time.Date(2024, 2, 29, 12, 0, 0, 1, time.UTC))},
	}
	if _, err := st.Insert(ctx, "spans", rows); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(context.Background(), "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	q := source.NewScan("spans")
	q.OrderBy = []source.OrderSpec{{Col: 0}}
	answer := func(src source.Source) []types.Row {
		t.Helper()
		it, err := src.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		out, err := source.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	local, remote := answer(st), answer(cl)
	if len(local) != len(rows) || len(remote) != len(rows) {
		t.Fatalf("local %d rows, remote %d, want %d", len(local), len(remote), len(rows))
	}
	for i := range local {
		if !remote[i].Equal(local[i]) || remote[i].String() != local[i].String() {
			t.Errorf("row %d: remote %v, local %v", i, remote[i], local[i])
		}
	}
}

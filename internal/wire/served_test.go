package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// servedShapes are the sub-queries a point statement ships, as the
// mediator encodes them: a projected primary-key lookup and an eight-key
// IN list over the same column, each named under the global schema.
func servedShapes() []struct {
	name string
	q    *source.Query
	rows int
} {
	id := func() *expr.ColRef { return &expr.ColRef{Name: "item_id", Index: 0, Type: types.KindInt} }
	keys := make([]expr.Expr, 8)
	for i := range keys {
		keys[i] = expr.NewConst(types.NewInt(int64(3 * i)))
	}
	return []struct {
		name string
		q    *source.Query
		rows int
	}{
		{"pk_lookup", &source.Query{Table: "items", Columns: []int{0, 1, 2}, Limit: -1,
			Filter: expr.NewBinary(expr.OpEq, id(), expr.NewConst(types.NewInt(7)))}, 1},
		{"in_list8", &source.Query{Table: "items", Columns: []int{0, 1, 2}, Limit: -1,
			Filter: &expr.InList{E: id(), List: keys}}, 8},
	}
}

// serveRaw returns a request that sends q as one msgExecute frame on fc,
// a greeted connection, and reads its answer undecoded: the rows frames'
// payloads land in fc's reused buffer and only the msgEnd's row count is
// read, so whatever allocates while it runs is the server's. q carries
// no deadline budget.
func serveRaw(t testing.TB, fc *frameConn, q *source.Query, rows int) func() {
	var e Encoder
	e.execHeader(execHeader{})
	if err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	req := e.Bytes()
	return func() {
		if err := fc.writeFrame(ctx, msgExecute, req); err != nil {
			t.Fatal(err)
		}
		tag, payload, err := fc.readFrame(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := binary.Uvarint(payload); tag != msgEnd || int(n) != rows {
			t.Fatalf("answer tag %d of %d rows, want msgEnd of %d", tag, n, rows)
		}
	}
}

// serveSource serves src and returns the server and a client of it, both
// closed with the test.
func serveSource(t *testing.T, src source.Source) (*Server, *Client) {
	t.Helper()
	srv, err := Serve(context.Background(), "127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// TestServedSubQueryAllocs holds what a component server allocates to
// serve a point sub-query on a warmed connection: decode, bind, execute
// against a relstore and stream the answer. A scripted client writes the
// frames and reads the answer undecoded, so every object counted is the
// serving side's. Each ceiling is 10% above what it measures, 2 and 3:
// the pk lookup's probe and row are held in its scan, neither probe
// evaluates the filter its index decides (4 and 6 while they did not),
// and the IN list's keys are read on the probe's stack (4 while they
// were sorted into a slice of their own).
func TestServedSubQueryAllocs(t *testing.T) {
	_, cl := startRelServer(t, 100)
	fc := greetedConn(t, cl)
	ceiling := map[string]float64{"pk_lookup": 3, "in_list8": 4}
	for _, c := range servedShapes() {
		serve := serveRaw(t, fc, c.q, c.rows)
		serve() // warms the connection
		n := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f objects served", c.name, n)
		if n > ceiling[c.name] {
			t.Errorf("serving %s allocates %.0f objects, want at most %.0f", c.name, n, ceiling[c.name])
		}
	}
}

// watchedStore is a relstore whose sub-queries' trees are watched: each
// stream checks, at every Next and at Close, that the query it runs
// still prints as it did when Execute was handed it.
type watchedStore struct {
	*relstore.Store
	t *testing.T
}

func (w watchedStore) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	it, err := w.Store.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	return &watchedIter{RowIter: it, t: w.t, q: q, text: q.String()}, nil
}

type watchedIter struct {
	source.RowIter
	t    *testing.T
	q    *source.Query
	text string
}

func (w *watchedIter) check() {
	if got := w.q.String(); got != w.text {
		w.t.Errorf("a sub-query changed while its stream ran: %q, was %q", got, w.text)
	}
}

func (w *watchedIter) Use(n int) { source.Use(w.RowIter, n) }

func (w *watchedIter) Next() (types.Row, error) {
	w.check()
	return w.RowIter.Next()
}

func (w *watchedIter) Close() error {
	w.check()
	return w.RowIter.Close()
}

// TestSubQueryTreeLivesUntilItsStreamEnds runs sub-queries of four
// shapes back to back on one connection, which decodes each into the
// storage the one before it used: each tree prints what it printed when
// its stream began until the stream ends, and each answer is its own —
// the second IN list is decoded into the first one's node, whose
// constant set must be built anew.
func TestSubQueryTreeLivesUntilItsStreamEnds(t *testing.T) {
	_, cl := serveSource(t, watchedStore{Store: itemsStore(t, 3*rowBatchSize), t: t})
	fc := greetedConn(t, cl)
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	keys := make([]expr.Expr, 9)
	for i := range keys {
		keys[i] = expr.NewConst(types.NewInt(int64(3*i + 1)))
	}
	shapes := append(servedShapes(), []struct {
		name string
		q    *source.Query
		rows int
	}{
		// A range of several frames, so the tree is read while rows go out.
		{"range", &source.Query{Table: "items", Limit: -1,
			Filter: expr.NewBinary(expr.OpGe, id, expr.NewConst(types.NewInt(rowBatchSize/2)))}, 3*rowBatchSize - rowBatchSize/2},
		{"other_in_list9", &source.Query{Table: "items", Columns: []int{0}, Limit: -1,
			Filter: &expr.InList{E: id, List: keys}}, 9},
	}...)
	for round := 0; round < 2; round++ {
		for _, c := range shapes {
			var e Encoder
			e.execHeader(execHeader{})
			if err := e.Query(c.q); err != nil {
				t.Fatal(err)
			}
			if err := fc.writeFrame(ctx, msgExecute, e.Bytes()); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				tag, payload, err := fc.readFrame(ctx)
				if err != nil || (tag != msgRows && tag != msgEnd) {
					t.Fatalf("%s: tag %d, %v", c.name, tag, err)
				}
				n, _ := binary.Uvarint(payload)
				rows += int(n)
				if tag == msgEnd {
					break
				}
			}
			if rows != c.rows {
				t.Errorf("%s, round %d: %d rows, want %d", c.name, round, rows, c.rows)
			}
		}
	}
}

// bytesStore holds t(id INT key, name STRING, blob BYTES) with rows 1..3.
func bytesStore(t *testing.T) *relstore.Store {
	st := relstore.New("bytes")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "blob", Type: types.KindBytes},
	)
	if err := st.CreateTable("t", schema, 0); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := st.Insert(ctx, "t", []types.Row{{types.NewInt(i), types.NewString("n"), types.NewBytes([]byte{byte(i)})}}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// readBack returns table t of st by key: name and blob, "gone" for a
// key without a row.
func readBack(t *testing.T, st source.Source) [4]string {
	it, err := st.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	out := [4]string{"gone", "gone", "gone", "gone"}
	for _, r := range rows {
		out[r[0].Int()] = r[1].Str() + "/" + string(r[2].Bytes())
	}
	return out
}

func idIs(k int64) expr.Expr {
	return expr.NewBinary(expr.OpEq, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(k)))
}

// TestSetValuesOutliveTheirRequest: a STRING and a BYTES that an UPDATE
// sets are kept by the store, and stay what they were set to when later
// requests on the same connection — a write and a sub-query with strings
// of their own — are decoded where the UPDATE was.
func TestSetValuesOutliveTheirRequest(t *testing.T) {
	st := bytesStore(t)
	_, cl := serveSource(t, st)
	set := []source.SetClause{
		{Col: 1, Value: expr.NewConst(types.NewString("x"))},
		{Col: 2, Value: expr.NewConst(types.NewBytes([]byte("\x00\xffbytes")))},
	}
	if n, err := cl.Update(ctx, "t", idIs(2), set); err != nil || n != 1 {
		t.Fatalf("update: %d, %v", n, err)
	}
	if got := readBack(t, st)[2]; got != "x/\x00\xffbytes" {
		t.Fatalf("row 2 reads %q after the update", got)
	}
	other := []source.SetClause{
		{Col: 1, Value: expr.NewConst(types.NewString("a longer string than x"))},
		{Col: 2, Value: expr.NewConst(types.NewBytes([]byte("and longer bytes than those")))},
	}
	if _, err := cl.Update(ctx, "t", idIs(3), other); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Execute(ctx, &source.Query{Table: "t", Limit: -1,
		Filter: expr.NewBinary(expr.OpEq, expr.NewBoundColRef(1, types.KindString, "name"), expr.NewConst(types.NewString("zzzzzzzzzzzzzzzzzzzz")))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := source.Drain(it); err != nil {
		t.Fatal(err)
	}
	if len(cl.pool) != 1 {
		t.Fatalf("%d pooled connections, want the one every request ran on", len(cl.pool))
	}
	got := readBack(t, st)
	if got[2] != "x/\x00\xffbytes" || got[3] != "a longer string than x/and longer bytes than those" {
		t.Errorf("rows 2 and 3 read %q and %q after later requests on the connection", got[2], got[3])
	}
}

// TestTransactionSpansRequestsOnOneConnection: an UPDATE and a DELETE of
// one transaction are two requests on its connection, the second decoded
// where the first was; the commit leaves what both said.
func TestTransactionSpansRequestsOnOneConnection(t *testing.T) {
	st := bytesStore(t)
	_, cl := serveSource(t, st)
	tx, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Update(ctx, "t", idIs(1), []source.SetClause{{Col: 1, Value: expr.NewConst(types.NewString("kept"))}}); err != nil || n != 1 {
		t.Fatalf("update: %d, %v", n, err)
	}
	if n, err := tx.Delete(ctx, "t", idIs(2)); err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	if err := tx.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := readBack(t, st), [4]string{"gone", "kept/\x01", "gone", "n/\x03"}; got != want {
		t.Errorf("after commit: %q, want %q", got, want)
	}
}

// TestQueryLogRendersEachSubQuery: the server's query log renders a slow
// sub-query's text when it finishes, and a sampled one's record carries
// it, after which the next sub-query on the connection is decoded where
// it was: each entry prints its own sub-query.
func TestQueryLogRendersEachSubQuery(t *testing.T) {
	st := itemsStore(t, 100)
	srv, cl := serveSource(t, st)
	srv.Queries.SetThreshold(0) // every sub-query is slow
	logged := make(lineChan, 8)
	srv.Queries.SetStructured(obs.NewStructuredLog(logged, 1, nil))
	var want []string
	for _, c := range servedShapes() {
		// What the server binds: the query as it decodes, bound alone.
		var e Encoder
		if err := e.Query(c.q); err != nil {
			t.Fatal(err)
		}
		q, err := NewDecoder(e.Bytes()).Query()
		if err != nil {
			t.Fatal(err)
		}
		if err := (&Server{src: st}).bindQuery(ctx, nil, q); err != nil {
			t.Fatal(err)
		}
		want = append(want, q.String())
		it, err := cl.Execute(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := source.Drain(it); err != nil {
			t.Fatal(err)
		}
	}
	// Finish files a sub-query's slow entry, then emits its record, after
	// the answer went out: each record read says its entry is filed.
	for i, w := range want {
		select {
		case line := <-logged:
			var rec obs.QueryLogRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.SQL != w {
				t.Errorf("record %d carries %q, want %q", i, rec.SQL, w)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no record for sub-query %d", i)
		}
	}
	slow := srv.Queries.Slow() // most recent first
	if len(slow) != len(want) {
		t.Fatalf("%d slow entries, want %d", len(slow), len(want))
	}
	for i, w := range want {
		if got := slow[len(want)-1-i].SQL; got != w {
			t.Errorf("slow entry %d renders %q, want %q", i, got, w)
		}
	}
}

// TestActiveQueriesReadWhileServing reads the server's in-flight
// sub-queries, as gisd's debug endpoint does, while one connection
// serves sub-query after sub-query, each decoded where the one before
// it was: a text is rendered before its sub-query finishes or not at
// all (run under -race).
func TestActiveQueriesReadWhileServing(t *testing.T) {
	srv, cl := serveSource(t, itemsStore(t, 100))
	stop := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				read <- n
				return
			default:
				for _, q := range srv.Queries.Active() {
					if q.SQL == "" {
						t.Error("an in-flight sub-query rendered empty")
					}
				}
				n++
			}
		}
	}()
	shapes := servedShapes()
	for i := 0; i < 400; i++ {
		c := shapes[i%len(shapes)]
		it, err := cl.Execute(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := source.Drain(it); err != nil || len(rows) != c.rows {
			t.Fatalf("%s: %d rows, %v", c.name, len(rows), err)
		}
	}
	close(stop)
	t.Logf("read the in-flight list %d times", <-read)
}

// TestArenaLetsGoOfALargeRequest: a sub-query with a long IN list of
// strings is carved from blocks as large as it needs, and once the arena
// is reset it keeps at most keptBytes of any of them; the next request
// decodes from the arena as before.
func TestArenaLetsGoOfALargeRequest(t *testing.T) {
	keys := make([]expr.Expr, 10000)
	for i := range keys {
		keys[i] = expr.NewConst(types.NewString(fmt.Sprintf("key-%05d", i)))
	}
	var e Encoder
	if err := e.Query(&source.Query{Table: "t", Limit: -1,
		Filter: &expr.InList{E: expr.NewBoundColRef(1, types.KindString, "name"), List: keys}}); err != nil {
		t.Fatal(err)
	}
	var a decodeArena
	q, err := (&Decoder{buf: e.Bytes(), arena: &a}).Query()
	if err != nil {
		t.Fatal(err)
	}
	if list := q.Filter.(*expr.InList).List; len(list) != len(keys) || list[9999].String() != "'key-09999'" {
		t.Fatalf("decoded %d keys, the last %v", len(list), list[len(list)-1])
	}
	a.reset()
	for name, kept := range map[string]int{
		"constants":   cap(a.consts.block) * int(unsafe.Sizeof(expr.Const{})),
		"expressions": cap(a.exprs.block) * int(unsafe.Sizeof(expr.Expr(nil))),
		"text":        cap(a.text),
		"notes":       cap(a.notes) * int(unsafe.Sizeof(textNote{})),
	} {
		if kept > keptBytes {
			t.Errorf("after a reset the arena keeps %d bytes of %s, want at most %d", kept, name, keptBytes)
		}
	}
	small := servedShapes()[0].q
	e.Reset()
	if err := e.Query(small); err != nil {
		t.Fatal(err)
	}
	if q, err := (&Decoder{buf: e.Bytes(), arena: &a}).Query(); err != nil || q.String() != small.String() {
		t.Errorf("after the large request: %v, %v; want %v", q, err, small)
	}
}

// countingConn is a discardConn that counts what is written to it.
type countingConn struct {
	discardConn
	n int
}

func (c *countingConn) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// TestRequestEndLetsGoOfWhatItGrew: a row wider than keptFrameBytes grows
// the connection's reply encoder to its frame, and a long IN list of
// strings grows the arena's blocks; once each request has been answered,
// the idle connection keeps at most keptFrameBytes of reply and keptBytes
// of a block.
func TestRequestEndLetsGoOfWhatItGrew(t *testing.T) {
	st := bytesStore(t)
	wide := strings.Repeat("w", 2*keptFrameBytes)
	if _, err := st.Insert(ctx, "t", []types.Row{{types.NewInt(0), types.NewString(wide), types.NewBytes(nil)}}); err != nil {
		t.Fatal(err)
	}
	srv, conn := &Server{src: st}, &connState{hello: true}
	out := &countingConn{}
	fc := newFrameConn(out, SimLink{}, SimLink{})
	serve := func(q *source.Query) {
		var e Encoder
		e.execHeader(execHeader{})
		if err := e.Query(q); err != nil {
			t.Fatal(err)
		}
		if err := srv.handle(ctx, fc, conn, msgExecute, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	serve(&source.Query{Table: "t", Limit: -1, Filter: idIs(0)})
	if out.n < len(wide) {
		t.Fatalf("the wide row's stream wrote %d bytes, want at least %d", out.n, len(wide))
	}
	if c := cap(conn.reply.buf); c > keptFrameBytes {
		t.Errorf("after the wide row's stream the connection keeps a %d-byte reply encoder, want at most %d", c, keptFrameBytes)
	}
	keys := make([]expr.Expr, 10000)
	for i := range keys {
		keys[i] = expr.NewConst(types.NewString(fmt.Sprintf("key-%05d", i)))
	}
	serve(&source.Query{Table: "t", Limit: -1,
		Filter: &expr.InList{E: expr.NewBoundColRef(1, types.KindString, "name"), List: keys}})
	// What a reset keeps of each block is TestArenaLetsGoOfALargeRequest's.
	if kept := cap(conn.arena.consts.block) * int(unsafe.Sizeof(expr.Const{})); kept > keptBytes {
		t.Errorf("after the long IN list the connection keeps %d bytes of constants, want at most %d", kept, keptBytes)
	}
}

// TestSetValueIsAStringOfItsOwn: the STRING an UPDATE sets, which the
// store keeps, is not carved from the request's string block, where it
// would begin as the filter's constant ends and keep the filter's
// strings alive for as long as the row holds it.
func TestSetValueIsAStringOfItsOwn(t *testing.T) {
	var e Encoder
	if err := e.writeReq(msgUpdate, &writeReq{Table: "t",
		Filter: expr.NewBinary(expr.OpEq, expr.NewBoundColRef(1, types.KindString, "name"), expr.NewConst(types.NewString("the filter's"))),
		Set:    []source.SetClause{{Col: 1, Value: expr.NewConst(types.NewString("x"))}}}); err != nil {
		t.Fatal(err)
	}
	req, err := (&connState{}).request(&Decoder{buf: e.Bytes()}).writeReq(msgUpdate)
	if err != nil {
		t.Fatal(err)
	}
	filter := req.Filter.(*expr.Binary).R.(*expr.Const).Val.Str()
	set := req.Set[0].Value.(*expr.Const).Val.Str()
	if filter != "the filter's" || set != "x" {
		t.Fatalf("decoded filter %q and SET %q", filter, set)
	}
	if unsafe.Pointer(unsafe.StringData(set)) == unsafe.Add(unsafe.Pointer(unsafe.StringData(filter)), len(filter)) {
		t.Error("the SET value is the substring of the request's block after the filter's constant")
	}
}

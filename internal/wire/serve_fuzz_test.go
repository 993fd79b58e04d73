package wire

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// hostileQueries are sub-queries no planner builds and any peer can
// send: each indexes a row at a position the decoder, which has no
// schema, cannot refuse. Before Query.Check each of them, as one frame,
// ended the serving process — the third once two rows were compared.
func hostileQueries() []*source.Query {
	return []*source.Query{
		{Table: "t", GroupBy: []int{99}, Limit: -1},
		{Table: "t", Aggs: []source.AggSpec{{Kind: expr.AggSum, Col: 99}}, Limit: -1},
		{Table: "t", OrderBy: []source.OrderSpec{{Col: 99}}, Limit: -1},
	}
}

// fuzzStores returns one store of each kind, each holding the same
// three-row table t(id, name, v).
func fuzzStores(t testing.TB) []source.Source {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "v", Type: types.KindFloat, Nullable: true},
	)
	rows := []types.Row{
		{types.NewInt(1), types.NewString("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewString("b"), types.Null},
		{types.NewInt(3), types.NewString("a"), types.NewFloat(-2)},
	}
	rel, kv, doc, file := relstore.New("rel"), kvstore.New("kv"), docstore.New("doc"), filestore.New("file")
	fields := make([]docstore.FieldMap, schema.Len())
	for i, c := range schema.Columns {
		fields[i] = docstore.FieldMap{Column: c, Path: c.Name}
	}
	for _, err := range []error{
		rel.CreateTable("t", schema, 0),
		kv.CreateBucket("t", schema, 0),
		doc.CreateCollection("t", fields),
		file.RegisterData("t", "1,a,1.5\n2,b,\n3,a,-2\n", schema),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []source.Writer{rel, kv, doc} {
		if _, err := w.Insert(ctx, "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	return []source.Source{rel, kv, doc, file}
}

// FuzzServe is the server's side of msgExecute past the decoder: every
// query that decodes is bound as handleExecute binds it — checked
// against the table and the source's capabilities, its filter rebound —
// and one that passes is executed and drained, against each kind of
// store. Whatever the bytes, and whatever errors come back: no panic.
func FuzzServe(f *testing.F) {
	stores := fuzzStores(f)
	for _, q := range append(sampleQueries(), hostileQueries()...) {
		var e Encoder
		if err := e.Query(q); err != nil {
			f.Fatal(err)
		}
		f.Add(e.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, st := range stores {
			// Decoded once a store: binding rewrites the filter.
			q, err := NewDecoder(data).Query()
			if err != nil {
				return
			}
			if err := (&Server{src: st}).bindQuery(ctx, q); err != nil {
				continue
			}
			if it, err := st.Execute(ctx, q); err == nil {
				_, _ = source.Drain(it) // a row that fails to evaluate is an error like any other
			}
		}
	})
}

// TestHostileQueryIsAnErrorNotACrash sends the three over a real
// connection: each is answered msgErr, and the same server, on the same
// connection, serves the next request.
func TestHostileQueryIsAnErrorNotACrash(t *testing.T) {
	_, cl := startRelServer(t, 10)
	for _, q := range hostileQueries() {
		q.Table = "items"
		if it, err := cl.Execute(ctx, q); err == nil {
			it.Close()
			t.Errorf("%s was executed", q)
		}
		scan(t, cl, ctx, 10)
	}
	if len(cl.pool) != 1 {
		t.Errorf("%d pooled connections, want the one every request ran on", len(cl.pool))
	}
}

type taggedWrite struct {
	tag byte
	req writeReq
}

// hostileWrites are write requests no mediator builds and any peer can
// send: a SET position outside the table (the first, as one frame, ended
// a process serving a kvstore), a SET clause without a value, an INSERT
// row narrower than the table.
func hostileWrites() []taggedWrite {
	one := expr.NewConst(types.NewInt(1))
	return []taggedWrite{
		{msgUpdate, writeReq{Table: "t", Set: []source.SetClause{{Col: 99, Value: one}}}},
		{msgUpdate, writeReq{Table: "t", Set: []source.SetClause{{Col: -1, Value: one}}}},
		{msgUpdate, writeReq{Table: "t", Set: []source.SetClause{{Col: 1}}}},
		{msgInsert, writeReq{Table: "t", Rows: []types.Row{{types.NewInt(9)}}}},
	}
}

// FuzzServeWrite is the write half of FuzzServe: every request that
// decodes as the body of msgInsert, msgUpdate or msgDelete goes through
// Server.write — the SET list checked against the table, filter and
// values rebound — into each kind of store, the scan-only one included
// (it is refused). The stores are new each time: a write that lands
// changes them. Whatever the bytes, and whatever errors come back: no
// panic, and a write that fails changes nothing — the store holds the
// rows it held before, which the mediator's statement-level atomicity
// over a source without transactions rests on.
func FuzzServeWrite(f *testing.F) {
	tags := []byte{msgInsert, msgUpdate, msgDelete}
	add := func(tag byte, req *writeReq) {
		var e Encoder
		if err := e.writeReq(tag, req); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(bytes.IndexByte(tags, tag)), e.Bytes())
	}
	for _, h := range hostileWrites() {
		add(h.tag, &h.req)
	}
	id := expr.NewBoundColRef(0, types.KindInt, "id")
	add(msgInsert, &writeReq{Table: "t", Rows: []types.Row{{types.NewInt(4), types.NewString("c"), types.Null}}})
	// The second row repeats the first one's key: the first must not stay.
	add(msgInsert, &writeReq{Table: "t", Rows: []types.Row{
		{types.NewInt(5), types.NewString("c"), types.Null}, {types.NewInt(5), types.NewString("d"), types.Null}}})
	add(msgDelete, &writeReq{Table: "t", Filter: expr.NewBinary(expr.OpGe, id, expr.NewConst(types.NewInt(2)))})
	for _, x := range sampleExprs() {
		add(msgUpdate, &writeReq{Table: "t", Filter: x, Set: []source.SetClause{{Col: 1, Value: x}, {Col: 0, Value: id}}})
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		tag := tags[int(kind)%len(tags)]
		for _, st := range fuzzStores(t) {
			// Decoded once a store: binding rewrites the expressions.
			req, err := NewDecoder(data).writeReq(tag)
			if err != nil {
				return
			}
			before := storeRows(t, st)
			if _, err := (&Server{src: st}).write(ctx, &connState{}, tag, &req); err != nil {
				if after := storeRows(t, st); after != before {
					t.Fatalf("%s: a write that failed (%v) changed the table:\nbefore %s\nafter  %s", st.Name(), err, before, after)
				}
			}
		}
	})
}

// storeRows renders every row of st's table t, sorted.
func storeRows(t *testing.T, st source.Source) string {
	it, err := st.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// TestHostileWriteIsAnErrorNotACrash sends them over a real connection
// to a served kvstore: each is answered msgErr and changes nothing, and
// the same server serves the next request.
func TestHostileWriteIsAnErrorNotACrash(t *testing.T) {
	kv := fuzzStores(t)[1] // rel, kv, doc, file
	srv, err := Serve(ctx, "127.0.0.1:0", kv)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, h := range hostileWrites() {
		if n, err := cl.write(ctx, nil, h.tag, h.req); err == nil {
			t.Errorf("tag %d %+v was applied to %d rows", h.tag, h.req, n)
		}
		it, err := cl.Execute(ctx, source.NewScan("t"))
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := source.Drain(it); err != nil || len(rows) != 3 {
			t.Fatalf("after tag %d %+v: %d rows, %v; want the three the bucket held", h.tag, h.req, len(rows), err)
		}
	}
}

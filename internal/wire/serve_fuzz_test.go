package wire

import (
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

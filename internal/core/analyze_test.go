package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/docstore"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
	"gis/internal/wire"
)

// TestAnalyzeBesidePlanning: ANALYZE installs statistics while planners
// read them. Under -race, a plain field between the two is a data race.
func TestAnalyzeBesidePlanning(t *testing.T) {
	e := newTestEngine(t)
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 30 && err == nil; i++ {
			err = e.Analyze(ctx)
		}
		done <- err
	}()
	for i := 0; i < 30; i++ {
		query(t, e, "SELECT c.name, o.oid, p.pname FROM customers c JOIN orders o ON c.id = o.cust_id JOIN products p ON p.sku = o.sku")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// countingStats is a relstore whose statistics are counted per table,
// with how many requests it served at once at most; fail, when set,
// fails them and every scan, so the table cannot be analyzed at all.
type countingStats struct {
	*relstore.Store
	fail error

	mu              sync.Mutex
	asked           map[string]int
	inFlight, worst int
}

func newCountingStats(t *testing.T, name string, fail error, tables ...string) *countingStats {
	t.Helper()
	st := relstore.New(name)
	for i, tab := range tables {
		if err := st.CreateTable(tab, types.NewSchema(types.Column{Name: "k", Type: types.KindInt}), 0); err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, 10*(i+1))
		for j := range rows {
			rows[j] = types.Row{types.NewInt(int64(j))}
		}
		mustInsert(t, st, tab, rows)
	}
	return &countingStats{Store: st, fail: fail, asked: make(map[string]int)}
}

func (c *countingStats) Stats(table string) (*stats.TableStats, error) {
	c.mu.Lock()
	c.asked[table]++
	c.inFlight++
	c.worst = max(c.worst, c.inFlight)
	c.mu.Unlock()
	time.Sleep(time.Millisecond) // long enough for a second request to overlap
	c.mu.Lock()
	c.inFlight--
	c.mu.Unlock()
	if c.fail != nil {
		return nil, c.fail
	}
	return c.Store.Stats(table)
}

func (c *countingStats) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	if c.fail != nil {
		return nil, c.fail
	}
	return c.Store.Execute(ctx, q)
}

// analyzeEngine maps global table g_<source>_<table> and, beside it,
// g2_<source>_<table> onto every table of every source.
func analyzeEngine(t *testing.T, srcs ...*countingStats) *Engine {
	t.Helper()
	e := New()
	cat := e.Catalog()
	for _, s := range srcs {
		if err := cat.AddSource(s); err != nil {
			t.Fatal(err)
		}
		tables, err := s.Tables(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			for _, g := range []string{"g_", "g2_"} {
				name := g + s.Name() + "_" + tab
				if err := cat.DefineTable(name, types.NewSchema(types.Column{Name: "k", Type: types.KindInt})); err != nil {
					t.Fatal(err)
				}
				if err := cat.MapSimple(ctx, name, s.Name(), tab); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return e
}

// fragStats is the statistics of the one fragment of global table name.
func fragStats(t *testing.T, e *Engine, name string) *stats.TableStats {
	t.Helper()
	tab, err := e.Catalog().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Fragments[0].Stats()
}

// TestAnalyzeAsksEachRemoteTableOnce: two global tables over one remote
// table cost one request, whose statistics both fragments share, and a
// source is never asked for two tables at once.
func TestAnalyzeAsksEachRemoteTableOnce(t *testing.T) {
	a := newCountingStats(t, "a", nil, "t", "u", "v")
	b := newCountingStats(t, "b", nil, "t")
	e := analyzeEngine(t, a, b)
	if err := e.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*countingStats{a, b} {
		for tab, n := range c.asked {
			if n != 1 {
				t.Errorf("%s.%s asked %d times, want once", c.Name(), tab, n)
			}
		}
		if c.worst != 1 {
			t.Errorf("%s served %d requests at once, want 1", c.Name(), c.worst)
		}
	}
	if len(a.asked) != 3 || len(b.asked) != 1 {
		t.Errorf("asked %v and %v, want every table of each", a.asked, b.asked)
	}
	one, other := fragStats(t, e, "g_a_u"), fragStats(t, e, "g2_a_u")
	if one == nil || one != other || one.RowCount != 20 {
		t.Errorf("g_a_u and g2_a_u hold %v and %v, want one collection of 20 rows", one, other)
	}
}

// TestAnalyzeErrorNamesEveryFailure: two sources that cannot be analyzed
// give the same error every run, naming both tables in catalog order,
// and the sources that can be analyzed still are.
func TestAnalyzeErrorNamesEveryFailure(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		down := errors.New("down")
		e := analyzeEngine(t,
			newCountingStats(t, "ok", nil, "t"),
			newCountingStats(t, "x1", down, "t"),
			newCountingStats(t, "x0", down, "t", "u"))
		err := e.Analyze(ctx)
		if !errors.Is(err, down) {
			t.Fatalf("Analyze = %v, want the sources' failure", err)
		}
		if run == 0 {
			first = err.Error()
			want := "core: analyze x0.t: down\ncore: analyze x0.u: down\ncore: analyze x1.t: down"
			if first != want {
				t.Fatalf("error:\n%s\nwant:\n%s", first, want)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d error:\n%s\nrun 0:\n%s", run, err, first)
		}
		if ts := fragStats(t, e, "g_ok_t"); ts == nil || ts.RowCount != 10 {
			t.Fatalf("run %d: the healthy source's table has %v", run, ts)
		}
	}
}

// TestAnalyzeIsDeterministic: twenty runs, under one to four OS threads,
// install equal statistics on every fragment.
func TestAnalyzeIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	e := newTestEngine(t)
	snapshot := func() map[string][]*stats.TableStats {
		out := make(map[string][]*stats.TableStats)
		for _, name := range e.Catalog().Tables() {
			tab, err := e.Catalog().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tab.Fragments {
				out[name] = append(out[name], f.Stats())
			}
		}
		return out
	}
	want := snapshot()
	for run := 0; run < 20; run++ {
		runtime.GOMAXPROCS(1 + run%4)
		if err := e.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
		if got := snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d installed other statistics", run)
		}
	}
}

// TestAnalyzeCollectsAtTheServedSource: a served kvstore, docstore and
// filestore have no statistics of their own, and their server collects
// them where the rows are: ANALYZE reads one reply per table, not the
// table.
func TestAnalyzeCollectsAtTheServedSource(t *testing.T) {
	const n = 20000
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "region", Type: types.KindString},
	)
	regions := []string{"north", "south", "east", "west"}
	kv := kvstore.New("an_kv")
	if err := kv.CreateBucket("t", schema, 0); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	var csv strings.Builder
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(regions[i%4])}
		fmt.Fprintf(&csv, "%d,%s\n", i, regions[i%4])
	}
	if _, err := kv.Insert(ctx, "t", rows); err != nil {
		t.Fatal(err)
	}
	doc := docstore.New("an_doc")
	if err := doc.CreateCollection("t", []docstore.FieldMap{{Column: schema.Columns[0], Path: "id"}, {Column: schema.Columns[1], Path: "r"}}); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if err := doc.InsertDoc("t", map[string]any{"id": float64(i), "r": regions[i%4]}); err != nil {
			t.Fatal(err)
		}
	}
	files := filestore.New("an_file")
	if err := files.RegisterData("t", csv.String(), schema); err != nil {
		t.Fatal(err)
	}

	e := New()
	cat := e.Catalog()
	for _, st := range []source.Source{kv, doc, files} {
		srv, err := wire.Serve(ctx, "127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithName(st.Name()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		if err := cat.AddSource(cl); err != nil {
			t.Fatal(err)
		}
		if err := cat.DefineTable(st.Name(), schema); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapSimple(ctx, st.Name(), st.Name(), "t"); err != nil {
			t.Fatal(err)
		}
	}
	framesIn := func(name string) int64 {
		return obs.Default().Counter("wire.client." + name + ".frames_in").Value()
	}
	before := map[string]int64{}
	for _, name := range []string{"an_kv", "an_doc", "an_file"} {
		before[name] = framesIn(name)
	}
	if err := e.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"an_kv", "an_doc", "an_file"} {
		if got := framesIn(name) - before[name]; got > 2 {
			t.Errorf("analyzing %s read %d frames, want at most 2", name, got)
		}
		ts := fragStats(t, e, name)
		if ts == nil || ts.RowCount != n || ts.Columns[0].NDV != n || ts.Columns[1].NDV != 4 {
			t.Errorf("%s: statistics %+v, want %d rows, %d ids, 4 regions", name, ts, n, n)
		}
	}
}

// BenchmarkAnalyze: ANALYZE of a federation of four in-process stores,
// hetero_local's at a tenth of its size — 2 000 orders in a relstore, a
// kvstore, a docstore and a filestore, 100 customers, and a second view
// of the relstore's orders. Each iteration analyzes a new federation, so
// no store answers from a cache.
func BenchmarkAnalyze(b *testing.B) {
	const orders, custs = 2000, 100
	schema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	regions := []string{"north", "south", "east", "west"}
	rows := make([]types.Row, orders)
	docs := make([]map[string]any, orders)
	var csv strings.Builder
	for i := range rows {
		amount := float64(i*7919%orders) / 4
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % custs)), types.NewFloat(amount), types.NewString(regions[i%4])}
		docs[i] = map[string]any{"oid": float64(i), "cust": map[string]any{"id": float64(i % custs)}, "amount": amount, "region": regions[i%4]}
		fmt.Fprintf(&csv, "%d,%d,%v,%s\n", i, i%custs, amount, regions[i%4])
	}
	customers := make([]types.Row, custs)
	for i := range customers {
		customers[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cust-%06d", i))}
	}
	build := func() *Engine {
		rel := relstore.New("h_rel")
		must := func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		}
		must(rel.CreateTable("orders", schema, 0))
		_, err := rel.Insert(ctx, "orders", rows)
		must(err)
		custSchema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "name", Type: types.KindString})
		must(rel.CreateTable("customers", custSchema, 0))
		_, err = rel.Insert(ctx, "customers", customers)
		must(err)
		kv := kvstore.New("h_kv")
		must(kv.CreateBucket("orders", schema, 0))
		_, err = kv.Insert(ctx, "orders", rows)
		must(err)
		doc := docstore.New("h_doc")
		must(doc.CreateCollection("orders", []docstore.FieldMap{
			{Column: schema.Columns[0], Path: "oid"}, {Column: schema.Columns[1], Path: "cust.id"},
			{Column: schema.Columns[2], Path: "amount"}, {Column: schema.Columns[3], Path: "region"},
		}))
		for _, d := range docs {
			must(doc.InsertDoc("orders", d))
		}
		files := filestore.New("h_file")
		must(files.RegisterData("orders", csv.String(), schema))

		e := New()
		cat := e.Catalog()
		for _, st := range []source.Source{rel, kv, doc, files} {
			must(cat.AddSource(st))
			must(cat.DefineTable("orders_"+st.Name(), schema))
			must(cat.MapSimple(ctx, "orders_"+st.Name(), st.Name(), "orders"))
		}
		must(cat.DefineTable("customers", custSchema))
		must(cat.MapSimple(ctx, "customers", "h_rel", "customers"))
		must(cat.DefineTable("orders_mediated", schema))
		must(cat.MapFragment(ctx, "orders_mediated", &catalog.Fragment{Source: "h_rel", RemoteTable: "orders",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100}, {RemoteCol: 3}}}))
		return e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := build()
		b.StartTimer()
		if err := e.Analyze(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
)

// The ownership rule (DESIGN.md "Who keeps a row") is checked by two
// reference consumers from internal/source: DrainOwned keeps every row
// and fails if one it holds reads differently at the end of the stream
// than when it was delivered — some stage lent to a keeper — and
// DrainCopies copies each row as it arrives, which is all a lent row
// allows. checkOwnership runs a plan for a kept and for a lent consumer
// and wants both to be what Collect returns.

// ownFed is a small federation whose scans exercise all of runFragScan:
// orders_file sits behind a scan-only CSV wrapper with a unit-converted
// and a value-mapped column (translation, the kept filter, a cut output,
// csvIter lending); orders_rel behind a relstore with identity mappings
// (the source's rows handed on, relstore's projecting iterator lending);
// orders_kv — whole rows read by position — and
// orders_doc hold the same rows in a kvstore bucket and a docstore
// collection, whose scans borrow the store's data as relstore's do
// (DESIGN.md "What a scan holds"); events is two relstore fragments
// (both unions); customers is the other side of the joins.
type ownFed struct {
	cat *catalog.Catalog
	// orders are the writers of orders_rel, orders_kv and orders_doc,
	// by global table.
	orders map[string]source.Writer
}

const ownOrders = 300

func newOwnFed(t *testing.T) *ownFed {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.New()
	remote := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "cents", Type: types.KindFloat},
		types.Column{Name: "rg", Type: types.KindString, Nullable: true},
	)
	global := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString, Nullable: true},
	)
	codes := []string{"N", "S", "E", "W"}
	var csv strings.Builder
	rows := make([]types.Row, ownOrders)
	for i := range rows {
		code, rg := codes[i%4], types.NewString(codes[i%4])
		if i%17 == 0 {
			code, rg = "", types.Null // an empty CSV field is NULL
		}
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 40)), types.NewFloat(float64(i*37%1000) + 0.5), rg}
		fmt.Fprintf(&csv, "%d,%d,%g,%s\n", i, i%40, rows[i][2].Float(), code)
	}

	fs := filestore.New("files")
	must(fs.RegisterData("orders", csv.String(), remote))
	must(cat.AddSource(fs))
	must(cat.DefineTable("orders_file", global))
	mapped := []catalog.ColumnMapping{
		{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 0.01},
		{RemoteCol: 3, ValueMap: map[string]string{"N": "north", "S": "south", "E": "east", "W": "west"}},
	}
	must(cat.MapFragment(ctx, "orders_file", &catalog.Fragment{Source: "files", RemoteTable: "orders", Columns: mapped}))

	rel := relstore.New("rel")
	must(rel.CreateTable("orders", remote, 0))
	_, err := rel.Insert(ctx, "orders", rows)
	must(err)
	must(cat.AddSource(rel))
	must(cat.DefineTable("orders_rel", remote))
	must(cat.MapSimple(ctx, "orders_rel", "rel", "orders"))

	kv := kvstore.New("kv")
	must(kv.CreateBucket("orders", remote, 0))
	_, err = kv.Insert(ctx, "orders", rows)
	must(err)
	must(cat.AddSource(kv))
	must(cat.DefineTable("orders_kv", remote))
	must(cat.MapSimple(ctx, "orders_kv", "kv", "orders"))

	doc := docstore.New("doc")
	must(doc.CreateCollection("orders", []docstore.FieldMap{
		{Column: remote.Columns[0], Path: "oid"}, {Column: remote.Columns[1], Path: "cust.id"},
		{Column: remote.Columns[2], Path: "cents"}, {Column: remote.Columns[3], Path: "cust.rg"},
	}))
	_, err = doc.Insert(ctx, "orders", rows)
	must(err)
	must(cat.AddSource(doc))
	must(cat.DefineTable("orders_doc", remote))
	must(cat.MapSimple(ctx, "orders_doc", "doc", "orders"))

	must(cat.DefineTable("events", remote))
	for i, name := range []string{"ev_a", "ev_b"} {
		st := relstore.New(name)
		must(st.CreateTable("events", remote, 0))
		_, err := st.Insert(ctx, "events", rows[i*ownOrders/2:(i+1)*ownOrders/2])
		must(err)
		must(cat.AddSource(st))
		must(cat.MapSimple(ctx, "events", name, "events"))
	}

	custSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
	)
	cust := relstore.New("crm")
	must(cust.CreateTable("customers", custSchema, 0))
	custRows := make([]types.Row, 60) // ids 40..59 have no order
	for i := range custRows {
		custRows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cust-%02d", i))}
	}
	_, err = cust.Insert(ctx, "customers", custRows)
	must(err)
	must(cat.AddSource(cust))
	must(cat.DefineTable("customers", custSchema))
	must(cat.MapSimple(ctx, "customers", "crm", "customers"))
	return &ownFed{cat: cat, orders: map[string]source.Writer{"orders_rel": rel, "orders_kv": kv, "orders_doc": doc}}
}

// plan optimizes one SELECT under the default options as tweak changes
// them.
func (f *ownFed) plan(t *testing.T, text string, tweak func(*plan.Options)) plan.Node {
	t.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	logical, err := plan.NewBuilder(f.cat).BuildSelect(sel)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	opts := plan.DefaultOptions()
	if tweak != nil {
		tweak(opts)
	}
	n, err := plan.Optimize(ctx, logical, f.cat, opts)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return n
}

// checkOwnership runs n three ways — Collect, a keeper under the
// oracle told how many rows it keeps (source.Keep, so the rows it holds
// share a block), a lent consumer copying at delivery — and wants the
// same rows from each: in order, unless n merges parallel branches. It
// returns them.
func checkOwnership(t *testing.T, name string, n plan.Node) []types.Row {
	t.Helper()
	want, err := Collect(ctx, n)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sorted := func(rows []types.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		if unordered(n) {
			sort.Strings(out)
		}
		return out
	}
	for _, lent := range []bool{false, true} {
		it, err := runNode(ctx, n, lent)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		drain, how := source.DrainOwned, "a consumer that keeps its rows"
		if !lent {
			source.Keep(it, keptRows(plan.EstimateRows(n)))
		} else {
			drain, how = source.DrainCopies, "a consumer that was lent its rows"
		}
		got, err := drain(it)
		if err != nil {
			t.Errorf("%s, %s: %v", name, how, err)
			continue
		}
		if g, w := sorted(got), sorted(want); !slices.Equal(g, w) {
			t.Errorf("%s, %s: %d rows, Collect has %d\n got %v\nwant %v", name, how, len(g), len(w), head(g), head(w))
		}
	}
	return want
}

func head(rows []string) []string { return rows[:min(len(rows), 6)] }

// unordered reports whether n's rows arrive in an order that varies
// from run to run: it merges parallel branches somewhere.
func unordered(n plan.Node) bool {
	if u, ok := n.(*plan.Union); ok && u.Parallel {
		return true
	}
	found := false
	plan.EachInput(n, func(in *plan.Node) { found = found || unordered(*in) })
	return found
}

func TestRowOwnership(t *testing.T) {
	f := newOwnFed(t)
	sequential := func(o *plan.Options) { o.ParallelFragments = false }
	noPush := func(o *plan.Options) { o.PushAggregates, o.PushTopK = false, false }
	cases := []struct {
		name  string
		sql   string
		tweak func(*plan.Options)
		rows  int // -1: not pinned
	}{
		{"file scan: translation, kept filter, projection", "SELECT oid, amount FROM orders_file WHERE region = 'north' AND amount > 2", nil, -1},
		{"file scan, every column", "SELECT * FROM orders_file", nil, ownOrders},
		{"file scan folded by an aggregate", "SELECT region, COUNT(*), SUM(amount) FROM orders_file WHERE amount < 9 GROUP BY region", nil, 5},
		{"rel scan: identity translation", "SELECT oid, cents FROM orders_rel WHERE oid >= 20", nil, ownOrders - 20},
		{"rel scan folded at the mediator", "SELECT rg, MIN(cents), COUNT(*) FROM orders_rel GROUP BY rg", noPush, 5},
		{"rel scan, pushed aggregate", "SELECT rg, COUNT(*) FROM orders_rel GROUP BY rg", nil, 5},
		{"kv scan: the committed rows, filtered at the mediator", "SELECT oid, cents FROM orders_kv WHERE cents > 100 AND oid >= 20", nil, -1},
		{"kv scan kept whole", "SELECT * FROM orders_kv", nil, ownOrders},
		{"kv range scan folded", "SELECT rg, MIN(cents), COUNT(*) FROM orders_kv WHERE oid < 200 GROUP BY rg", nil, 5},
		{"doc scan: filter and projection pushed", "SELECT oid, cents FROM orders_doc WHERE cust_id < 7 AND cents > 100", nil, -1},
		{"doc scan kept whole", "SELECT * FROM orders_doc", nil, ownOrders},
		{"doc scan folded", "SELECT rg, SUM(cents) FROM orders_doc GROUP BY rg", nil, 5},
		{"project over a filter over a scan", "SELECT oid + 1, amount * 2, region FROM orders_file WHERE oid % 3 = 0", nil, ownOrders / 3},
		{"project over project", "SELECT x + 1 FROM (SELECT oid * 2 AS x FROM orders_rel) q WHERE x > 10", nil, -1},
		{"sort keeps", "SELECT oid, amount FROM orders_file ORDER BY amount DESC, oid", nil, ownOrders},
		{"sort and limit, the full sort", "SELECT oid, amount FROM orders_file ORDER BY amount DESC, oid LIMIT 7", noPush, 7},
		// The Sort keeps 45 rows out of lent ones: what it copied out of
		// the file scan's one row must survive the stream.
		{"top-k over a lent input", "SELECT oid, amount, region FROM orders_file ORDER BY region, amount DESC, oid LIMIT 40 OFFSET 5", nil, 40},
		{"top-k over a lent join", "SELECT c.name, o.oid FROM customers c JOIN orders_file o ON c.id = o.cust_id ORDER BY o.amount, o.oid LIMIT 9",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }, 9},
		{"limit and offset pass through", "SELECT oid, amount FROM orders_file LIMIT 70 OFFSET 5", nil, 70},
		{"distinct groups", "SELECT DISTINCT region, cust_id % 2 FROM orders_file", nil, -1},
		{"distinct under an aggregate", "SELECT COUNT(*) FROM (SELECT DISTINCT region FROM orders_file) q", nil, 1},
		{"sequential union", "SELECT oid, cents FROM events WHERE cents > 100", sequential, -1},
		{"sequential union folded", "SELECT rg, SUM(cents) FROM events GROUP BY rg", func(o *plan.Options) { sequential(o); noPush(o) }, 5},
		{"sequential union, two-phase aggregate", "SELECT rg, SUM(cents) FROM events GROUP BY rg", sequential, 5},
		{"parallel union", "SELECT oid, cents FROM events WHERE cents > 100", nil, -1},
		{"parallel union folded", "SELECT rg, SUM(cents) FROM events GROUP BY rg", noPush, 5},
		{"parallel union, two-phase aggregate", "SELECT rg, SUM(cents) FROM events GROUP BY rg", nil, 5},
		{"inner hash join", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders_file o ON c.id = o.cust_id WHERE o.amount > 5",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }, -1},
		{"inner join folded", "SELECT c.name, SUM(o.amount) FROM customers c JOIN orders_file o ON c.id = o.cust_id GROUP BY c.name",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }, 40},
		{"left join", "SELECT c.id, o.oid FROM customers c LEFT JOIN orders_file o ON c.id = o.cust_id AND o.amount > 9",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }, -1},
		{"left join, file side streamed", "SELECT o.oid, c.name FROM orders_file o LEFT JOIN customers c ON o.cust_id = c.id AND c.id < 10",
			func(o *plan.Options) { o.ForceStrategy, o.JoinOrder = plan.StrategyShipAll, plan.OrderSyntactic }, ownOrders},
		{"non-equi join", "SELECT c.id, o.oid FROM customers c JOIN orders_file o ON c.id > o.oid + 50", nil, -1},
		{"key-shipped join: semijoin", "SELECT c.name, o.oid FROM customers c JOIN orders_rel o ON c.id = o.cust_id WHERE c.id < 7",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategySemiJoin }, -1},
		{"key-shipped join: folded", "SELECT c.name, COUNT(*) FROM customers c JOIN orders_rel o ON c.id = o.cust_id WHERE c.id < 7 GROUP BY c.name",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategySemiJoin }, 7},
		{"key-shipped join over a union", "SELECT c.name, e.oid FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id IN (3, 4)",
			func(o *plan.Options) { o.ForceStrategy = plan.StrategySemiJoin }, -1},
	}
	for _, c := range cases {
		n := f.plan(t, c.sql, c.tweak)
		rows := checkOwnership(t, c.name, n)
		if c.rows >= 0 && len(rows) != c.rows {
			t.Errorf("%s: %d rows, want %d\n%s", c.name, len(rows), c.rows, plan.Explain(n))
		}
		if c.rows < 0 && len(rows) < 2 {
			t.Errorf("%s: %d rows prove nothing\n%s", c.name, len(rows), plan.Explain(n))
		}
		if strings.HasPrefix(c.name, "top-k") != strings.Contains(plan.Explain(n), " top ") {
			t.Errorf("%s: not the sort the case is named for\n%s", c.name, plan.Explain(n))
		}
	}

	// Both join kinds over planned inputs — hash and nested-loop, the
	// left side a lender (a file scan) and a keeper's choice what the
	// join is asked.
	left := func() plan.Node { return f.plan(t, "SELECT cust_id, oid, amount FROM orders_file", nil) }
	right := func() plan.Node { return f.plan(t, "SELECT id, name FROM customers WHERE id % 2 = 0", nil) }
	for _, kind := range []plan.JoinKind{plan.JoinLeft, plan.JoinInner} {
		for _, hash := range []bool{true, false} {
			j := &plan.Join{Kind: kind, L: left(), R: right(),
				Cond: expr.NewBinary(expr.OpEq, expr.NewBoundColRef(0, types.KindInt, "cust_id"), expr.NewBoundColRef(3, types.KindInt, "id"))}
			if hash {
				j.EquiL, j.EquiR = []int{0}, []int{0}
			}
			name := fmt.Sprintf("%s join (hash %v)", kind, hash)
			rows := checkOwnership(t, name, j)
			if want := map[plan.JoinKind]int{plan.JoinLeft: ownOrders, plan.JoinInner: ownOrders / 2}[kind]; len(rows) != want {
				t.Errorf("%s: %d rows, want %d", name, len(rows), want)
			}
			// And under consumers of each kind: a fold, a keeper, a
			// builder.
			id := expr.NewBoundColRef(0, types.KindInt, "cust_id")
			checkOwnership(t, name+" folded", &plan.Aggregate{Input: j, GroupBy: []expr.Expr{id}, Aggs: []plan.AggItem{{Kind: expr.AggCount}}})
			checkOwnership(t, name+" sorted", &plan.Sort{Input: j, Keys: []plan.SortKey{{E: expr.NewBoundColRef(1, types.KindInt, "oid"), Desc: true}}})
			checkOwnership(t, name+" projected", &plan.Project{Input: j, Exprs: []expr.Expr{expr.NewBinary(expr.OpAdd, id, id)}, Names: []string{"twice"}})
		}
	}
}

// A keeper's rows are its own for as long as it holds them: rows drained
// from a scan of each store that lends its data to a scan read the same
// after the store has rewritten, deleted and added to what was scanned.
func TestKeptRowsSurviveLaterWrites(t *testing.T) {
	f := newOwnFed(t)
	cents := expr.NewBoundColRef(2, types.KindFloat, "cents")
	oid := expr.NewBoundColRef(0, types.KindInt, "oid")
	for table, w := range f.orders {
		for _, text := range []string{"SELECT * FROM " + table, "SELECT cents, oid FROM " + table + " WHERE oid >= 10"} {
			it, err := runNode(ctx, f.plan(t, text, nil), false)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			rows, err := source.DrainOwned(it)
			if err != nil || len(rows) < ownOrders/2 {
				t.Fatalf("%s: %d rows, %v", text, len(rows), err)
			}
			copies := make([]types.Row, len(rows))
			for i, r := range rows {
				copies[i] = r.Clone()
			}
			set := []source.SetClause{{Col: 2, Value: expr.NewBinary(expr.OpAdd, cents, expr.NewConst(types.NewFloat(0.25)))}, {Col: 3, Value: expr.NewConst(types.NewString("moved"))}}
			if n, err := w.Update(ctx, "orders", nil, set); err != nil || n == 0 {
				t.Fatalf("%s: update = %d, %v", table, n, err)
			}
			if n, err := w.Delete(ctx, "orders", expr.NewBinary(expr.OpEq, expr.NewBinary(expr.OpMod, oid, expr.NewConst(types.NewInt(7))), expr.NewConst(types.NewInt(3)))); err != nil {
				t.Fatalf("%s: delete = %d, %v", table, n, err)
			}
			for i, r := range rows {
				if !slices.EqualFunc(r, copies[i], types.Identical) {
					t.Fatalf("%s: row %d was delivered as %v and reads %v after later writes", text, i, copies[i], r)
				}
			}
		}
	}
}

// The hash join's build side is two position arrays, not a slice per
// key: matches still come out in the order the build rows arrived, keys
// that share a bucket do not match each other, and an empty build side
// matches nothing.
func TestHashBuildKeepsArrivalOrder(t *testing.T) {
	var right []types.Row
	for i := 0; i < 200; i++ {
		right = append(right, types.Row{types.NewInt(int64(i % 5)), types.NewInt(int64(i))})
	}
	schema := types.NewSchema(intCol("k"), intCol("v"))
	j := equiJoin(plan.JoinInner, &plan.Values{Out: schema}, &plan.Values{Out: schema})
	left := []types.Row{{types.NewInt(3), types.NewInt(-1)}, {types.NewInt(7), types.NewInt(-2)}, {types.NewInt(0), types.NewInt(-3)}}
	got, err := source.DrainOwned(joinRows(ctx, j, source.SliceIter(left), right, account{}, false))
	if err != nil {
		t.Fatal(err)
	}
	var want []types.Row
	for _, l := range []int64{3, 0} {
		for i := int64(0); i < 200; i++ {
			if i%5 == l {
				want = append(want, types.Row{types.NewInt(l), types.NewInt(map[int64]int64{3: -1, 0: -3}[l]), types.NewInt(l), types.NewInt(i)})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v: build rows must match in arrival order", i, got[i], want[i])
		}
	}
	if rows, err := source.Drain(joinRows(ctx, j, source.SliceIter(left), nil, account{}, false)); err != nil || len(rows) != 0 {
		t.Errorf("an empty build side: %d rows, %v", len(rows), err)
	}
}

package workload

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the plans this build produces")

// planVariant is one optimizer configuration: the defaults, or the
// defaults with a single switch moved (experiment F9's ablations, the
// forced join strategies).
type planVariant struct {
	name  string
	tweak func(*plan.Options)
}

var planVariants = []planVariant{
	{"default", func(*plan.Options) {}},
	{"FoldConstants=off", func(o *plan.Options) { o.FoldConstants = false }},
	{"PushFilters=off", func(o *plan.Options) { o.PushFilters = false }},
	{"PruneColumns=off", func(o *plan.Options) { o.PruneColumns = false }},
	{"JoinOrder=syntactic", func(o *plan.Options) { o.JoinOrder = plan.OrderSyntactic }},
	{"JoinOrder=greedy", func(o *plan.Options) { o.JoinOrder = plan.OrderGreedy }},
	{"ParallelFragments=off", func(o *plan.Options) { o.ParallelFragments = false }},
	{"PushAggregates=off", func(o *plan.Options) { o.PushAggregates = false }},
	{"PushTopK=off", func(o *plan.Options) { o.PushTopK = false }},
	{"ForceStrategy=ship-all", func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }},
	{"ForceStrategy=semijoin", func(o *plan.Options) { o.ForceStrategy = plan.StrategySemiJoin }},
}

// setVariant installs v's options on the fixture's engine.
func setVariant(f *Fixture, v planVariant) {
	opts := plan.DefaultOptions()
	v.tweak(opts)
	*f.Engine.PlanOptions() = *opts
}

// addCustomers gives a fixture the TwoTable customers table (n rows on a
// relstore "src_c") so its order-shaped tables have something to join.
func addCustomers(t testing.TB, f *Fixture, n int) {
	t.Helper()
	st := relstore.New("src_c")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.CreateTable("customers", customersSchema(), 0))
	_, err := st.Insert(ctx, "customers", GenCustomers(n, 1))
	must(err)
	cat := f.Engine.Catalog()
	must(cat.AddSource(st))
	must(cat.DefineTable("customers", customersSchema()))
	must(cat.MapSimple(ctx, "customers", "src_c", "customers"))
	must(f.Engine.Analyze(ctx))
}

// testFixtures builds the five in-process federations the plan corpus
// and the equivalence generator run over, keyed by the name a case uses.
// The two whose order tables have nothing to join get a customers table.
func testFixtures(t testing.TB) map[string]*Fixture {
	t.Helper()
	out := map[string]*Fixture{}
	for _, m := range []struct {
		name      string
		build     func() (*Fixture, error)
		customers int
	}{
		{"twotable", func() (*Fixture, error) { return TwoTable(ctx, 100, 1000, false, Link{}) }, 0},
		{"partitioned", func() (*Fixture, error) { return Partitioned(ctx, 4, 250, false, Link{}) }, 1000},
		{"hetero", func() (*Fixture, error) { return Heterogeneous(ctx, 500, false, Link{}) }, 0},
		{"capability", func() (*Fixture, error) { return Capability(ctx, 300) }, 1000},
		{"txn", func() (*Fixture, error) { return TxnStores(ctx, 2, 50, false, Link{}) }, 0},
	} {
		f, err := m.build()
		if err != nil {
			t.Fatalf("%s fixture: %v", m.name, err)
		}
		t.Cleanup(f.Close)
		if m.customers > 0 {
			addCustomers(t, f, m.customers)
		}
		out[m.name] = f
	}
	return out
}

type planCase struct {
	fixture string
	name    string
	sql     string
	params  []types.Value
}

func intParams(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

var capTables = []string{"orders_rel", "orders_kv", "orders_doc", "orders_file"}

// planCorpus is the fixed statement list of the golden file.
func planCorpus() []planCase {
	var cs []planCase
	add := func(fixture, name, sql string, params ...types.Value) {
		cs = append(cs, planCase{fixture, name, sql, params})
	}

	// The sixteen SELECT shapes of bench/gen.go, on the workload
	// fixtures' tables (orders_cents and bench's orders_mediated become
	// Heterogeneous's orders_mediated; the hetero join runs on TwoTable).
	add("twotable", "bench/pk_lookup", "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?", intParams(500)...)
	add("twotable", "bench/fk_agg", "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?", intParams(7)...)
	add("twotable", "bench/fk_join_top5", "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", intParams(7)...)
	add("twotable", "bench/in_list", "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)", intParams(3, 141, 59, 26, 535, 897, 932, 384)...)
	add("twotable", "bench/range_ship", "SELECT oid, cust_id, amount, region FROM orders WHERE oid >= ? AND oid < ?", intParams(100, 300)...)
	add("hetero", "bench/ship_sum_scaled", "SELECT COUNT(*), SUM(amount) FROM orders_mediated WHERE oid >= ? AND oid < ?", intParams(100, 300)...)
	add("twotable", "bench/ship_join", "SELECT o.oid, c.name, o.amount FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?", intParams(100, 300)...)
	add("twotable", "bench/rel_join_group", "SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.amount < ? GROUP BY c.segment", types.NewFloat(250))
	add("hetero", "bench/mediated_sum", "SELECT region, site, COUNT(*), SUM(amount) FROM orders_mediated WHERE oid >= ? AND oid < ? GROUP BY region, site", intParams(100, 300)...)
	add("capability", "bench/kv_filter_agg", "SELECT region, COUNT(*), SUM(amount) FROM orders_kv WHERE amount < ? GROUP BY region", types.NewFloat(250))
	add("capability", "bench/doc_filter_agg", "SELECT region, COUNT(*), SUM(amount) FROM orders_doc WHERE cust_id < ? GROUP BY region", intParams(100)...)
	add("capability", "bench/file_topk", "SELECT oid, amount FROM orders_file WHERE region = ? AND amount < ? ORDER BY amount DESC, oid LIMIT 10", types.NewString("north"), types.NewFloat(250))
	add("partitioned", "bench/fan_agg8", "SELECT region, COUNT(*), SUM(amount) FROM events WHERE amount < ? GROUP BY region", types.NewFloat(250))
	add("partitioned", "bench/semijoin_sel", "SELECT c.name, e.oid, e.amount FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id >= ? AND c.id < ?", intParams(10, 14)...)
	add("partitioned", "bench/range_pruned", "SELECT oid, cust_id, amount FROM events WHERE oid >= ? AND oid < ?", intParams(300, 420)...)
	add("txn", "bench/sum_check", "SELECT SUM(balance), COUNT(*) FROM accounts")

	// The SELECTs of internal/experiments (T6 runs updates only).
	add("twotable", "T1", "SELECT oid, amount FROM orders WHERE amount < ?", types.NewFloat(100))
	for _, left := range []int64{1, 5, 50} {
		add("twotable", fmt.Sprintf("T2+F7 left=%d", left), "SELECT COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id < ?", intParams(left)...)
	}
	add("partitioned", "T4", "SELECT SUM(amount) FROM events")
	for _, q := range []string{
		"SELECT COUNT(*) FROM orders_native",
		"SELECT COUNT(*) FROM orders_mediated",
		"SELECT COUNT(*) FROM orders_native WHERE rg = 'N'",
		"SELECT COUNT(*) FROM orders_mediated WHERE region = 'north'",
		"SELECT SUM(cents) FROM orders_native",
		"SELECT SUM(amount) FROM orders_mediated",
	} {
		add("hetero", "F5", q)
	}
	for _, tbl := range capTables {
		add("capability", "T8 filter_agg", "SELECT COUNT(*), SUM(amount) FROM "+tbl+" WHERE region = 'north'")
		add("capability", "T8 point", "SELECT amount FROM "+tbl+" WHERE oid = ?", intParams(150)...)
	}
	add("twotable", "F9", "SELECT c.segment, COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.amount < 100 AND c.id < 500 GROUP BY c.segment")
	add("twotable", "OV1", "SELECT region, SUM(amount) FROM orders GROUP BY region")

	// The capability matrix: one statement per pushdown question, asked
	// of each of the four wrapper classes.
	matrix := []struct{ name, sql string }{
		{"key =", "SELECT * FROM $T WHERE oid = 5"},
		{"key range", "SELECT oid, amount FROM $T WHERE oid >= 10 AND oid < 20"},
		{"key IN", "SELECT oid, amount FROM $T WHERE oid IN (1, 2, 3)"},
		{"key NOT IN", "SELECT oid FROM $T WHERE oid NOT IN (1, 2, 3)"},
		{"key <>", "SELECT oid FROM $T WHERE oid <> 4"},
		{"non-key filter", "SELECT oid FROM $T WHERE region = 'north'"},
		{"key and non-key filter", "SELECT oid FROM $T WHERE oid < 50 AND amount > 100"},
		{"key or non-key filter", "SELECT oid FROM $T WHERE oid < 5 OR amount > 990"},
		{"constant-foldable filter", "SELECT oid FROM $T WHERE oid < 2 + 3 AND 1 = 1"},
		{"projection", "SELECT amount, oid FROM $T"},
		{"GROUP BY", "SELECT region, COUNT(*), SUM(amount) FROM $T GROUP BY region"},
		{"GROUP BY without aggregates", "SELECT region FROM $T GROUP BY region"},
		{"GROUP BY expression", "SELECT oid % 2, COUNT(*) FROM $T GROUP BY oid % 2"},
		{"global aggregate", "SELECT COUNT(*), MIN(amount), MAX(amount) FROM $T"},
		{"AVG", "SELECT AVG(amount) FROM $T"},
		{"COUNT DISTINCT", "SELECT COUNT(DISTINCT region) FROM $T"},
		{"filter, GROUP BY, HAVING", "SELECT region, COUNT(*) FROM $T WHERE amount < 100 GROUP BY region HAVING COUNT(*) > 1"},
		{"DISTINCT", "SELECT DISTINCT region FROM $T"},
		{"ORDER BY", "SELECT oid, amount FROM $T ORDER BY amount DESC"},
		{"ORDER BY LIMIT OFFSET", "SELECT oid, amount FROM $T ORDER BY amount DESC, oid LIMIT 5 OFFSET 2"},
		{"ORDER BY expression", "SELECT oid, amount FROM $T ORDER BY amount * 2 LIMIT 3"},
		{"hidden sort column", "SELECT oid FROM $T ORDER BY amount LIMIT 3"},
		{"hidden sort column, no limit", "SELECT oid FROM $T ORDER BY amount"},
		{"filter, ORDER BY, LIMIT", "SELECT oid, amount FROM $T WHERE region = 'north' ORDER BY amount LIMIT 3"},
		{"bare LIMIT", "SELECT oid, region FROM $T LIMIT 4"},
		{"bare LIMIT OFFSET", "SELECT oid FROM $T LIMIT 4 OFFSET 2"},
		{"filter, LIMIT", "SELECT oid FROM $T WHERE region = 'north' LIMIT 4"},
		{"ORDER BY over aggregate", "SELECT region, SUM(amount) AS s FROM $T GROUP BY region ORDER BY s DESC LIMIT 2"},
		{"LIMIT over aggregate", "SELECT region, COUNT(*) FROM $T GROUP BY region LIMIT 2"},
		{"join, table on the right", "SELECT c.name, o.amount FROM customers c JOIN $T o ON c.id = o.cust_id WHERE c.id < 5"},
		{"join on the key, table on the right", "SELECT c.name, o.amount FROM customers c JOIN $T o ON c.id = o.oid WHERE c.id < 5"},
		{"join, table on the left", "SELECT o.oid, c.name FROM $T o JOIN customers c ON o.cust_id = c.id WHERE o.oid < 20"},
		{"left join", "SELECT c.id, o.oid FROM customers c LEFT JOIN $T o ON c.id = o.oid WHERE c.id < 5"},
		{"join, aggregate above", "SELECT c.segment, SUM(o.amount) FROM customers c JOIN $T o ON c.id = o.cust_id GROUP BY c.segment"},
		{"join, ORDER BY LIMIT above", "SELECT c.name, o.oid FROM customers c JOIN $T o ON c.id = o.oid ORDER BY o.oid LIMIT 3"},
		{"self join on the key", "SELECT a.oid, b.amount FROM $T a JOIN $T b ON a.oid = b.oid WHERE a.oid < 10"},
		{"derived table", "SELECT t.oid FROM (SELECT oid, amount FROM $T WHERE amount > 500) t WHERE t.oid < 100"},
		{"derived table, sorted", "SELECT t.oid FROM (SELECT oid, amount FROM $T ORDER BY amount LIMIT 10) t"},
	}
	for _, m := range matrix {
		for _, tbl := range capTables {
			add("capability", tbl+": "+m.name, strings.ReplaceAll(m.sql, "$T", tbl))
		}
	}
	add("capability", "UNION across wrappers", "SELECT oid FROM orders_rel WHERE oid < 3 UNION SELECT oid FROM orders_kv WHERE oid < 3")
	add("capability", "UNION ALL across wrappers, ORDER BY LIMIT", "SELECT oid, amount FROM orders_doc WHERE oid < 9 UNION ALL SELECT oid, amount FROM orders_file WHERE oid < 9 ORDER BY amount LIMIT 4")
	add("capability", "join across wrappers", "SELECT k.oid, d.amount FROM orders_kv k JOIN orders_doc d ON k.oid = d.oid WHERE d.amount < 50")
	add("capability", "three-way join", "SELECT c.name, k.amount, f.region FROM customers c JOIN orders_kv k ON c.id = k.cust_id JOIN orders_file f ON k.oid = f.oid WHERE c.id < 3")

	// The same questions of a four-fragment table: two-phase aggregation,
	// distributed top-k, pruning.
	for _, m := range []struct{ name, sql string }{
		{"AVG", "SELECT AVG(amount) FROM events"},
		{"GROUP BY with AVG", "SELECT region, AVG(amount), COUNT(*) FROM events GROUP BY region"},
		{"MIN MAX", "SELECT MIN(amount), MAX(oid) FROM events"},
		{"GROUP BY without aggregates", "SELECT region FROM events GROUP BY region"},
		{"COUNT DISTINCT", "SELECT COUNT(DISTINCT cust_id) FROM events"},
		{"HAVING", "SELECT cust_id, COUNT(*) FROM events GROUP BY cust_id HAVING COUNT(*) > 2"},
		{"ORDER BY", "SELECT oid FROM events ORDER BY oid"},
		{"ORDER BY LIMIT OFFSET", "SELECT oid, amount FROM events ORDER BY amount DESC, oid LIMIT 5 OFFSET 1"},
		{"hidden sort column", "SELECT oid FROM events ORDER BY amount LIMIT 3"},
		{"bare LIMIT", "SELECT oid FROM events LIMIT 7"},
		{"filter, LIMIT", "SELECT oid FROM events WHERE region = 'east' LIMIT 7"},
		{"pruned to one fragment, ORDER BY LIMIT", "SELECT oid, amount FROM events WHERE oid < 100 ORDER BY amount LIMIT 3"},
		{"pruned to two fragments, aggregate", "SELECT COUNT(*) FROM events WHERE oid >= 200 AND oid < 600"},
		{"every fragment pruned", "SELECT oid FROM events WHERE oid < 0"},
		{"key IN", "SELECT oid, amount FROM events WHERE oid IN (3, 300, 900)"},
		{"ORDER BY over aggregate", "SELECT region, SUM(amount) AS s FROM events GROUP BY region ORDER BY s DESC LIMIT 2"},
		{"join, fragments on the left", "SELECT e.oid, c.name FROM events e JOIN customers c ON e.cust_id = c.id WHERE e.oid < 20"},
		{"join, aggregate above", "SELECT c.segment, COUNT(*) FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id < 40 GROUP BY c.segment"},
		{"IN subquery", "SELECT oid FROM events WHERE cust_id IN (SELECT id FROM customers WHERE id < 3)"},
		{"UNION ALL of fragments and a table", "SELECT oid FROM events WHERE oid < 3 UNION ALL SELECT id FROM customers WHERE id < 3"},
	} {
		add("partitioned", "events: "+m.name, m.sql)
	}

	// And of a fragment whose columns are value-mapped, unit-converted
	// and constant: only identity-mapped columns may be sorted, grouped
	// or aggregated remotely.
	for _, m := range []struct{ name, sql string }{
		{"filter on a value-mapped column", "SELECT oid FROM orders_mediated WHERE region = 'north'"},
		{"filter on a unit-converted column", "SELECT oid FROM orders_mediated WHERE amount < 50"},
		{"IN on a value-mapped column", "SELECT oid FROM orders_mediated WHERE region IN ('north', 'south')"},
		{"filter on a constant column", "SELECT oid FROM orders_mediated WHERE site = 'legacy-dc'"},
		{"filter contradicting a constant column", "SELECT oid FROM orders_mediated WHERE site = 'elsewhere'"},
		{"ORDER BY a unit-converted column", "SELECT oid, amount FROM orders_mediated ORDER BY amount LIMIT 3"},
		{"ORDER BY an identity column", "SELECT oid, amount FROM orders_mediated ORDER BY oid DESC LIMIT 3"},
		{"GROUP BY a value-mapped column", "SELECT region, COUNT(*) FROM orders_mediated GROUP BY region"},
		{"GROUP BY an identity column", "SELECT cust_id, COUNT(*) FROM orders_mediated GROUP BY cust_id"},
		{"SUM of a unit-converted column by an identity column", "SELECT cust_id, SUM(amount) FROM orders_mediated GROUP BY cust_id"},
		{"bare LIMIT", "SELECT oid, region, site FROM orders_mediated LIMIT 5"},
		{"join on identity keys", "SELECT n.oid, m.amount FROM orders_native n JOIN orders_mediated m ON n.oid = m.oid WHERE n.oid < 10"},
		{"join on a unit-converted key", "SELECT n.oid, m.oid FROM orders_native n JOIN orders_mediated m ON n.cents = m.amount WHERE n.oid < 10"},
		{"join on a value-mapped key", "SELECT n.oid, m.oid FROM orders_native n JOIN orders_mediated m ON n.rg = m.region WHERE n.oid < 3 AND m.oid < 3"},
	} {
		add("hetero", "mediated: "+m.name, m.sql)
	}

	// Joins written the SQL-89 way: a comma or CROSS join is an inner
	// join with no condition, and the WHERE conjunct over both sides is
	// its condition, so each plans as its JOIN … ON twin above — except
	// with PushFilters off, where it stays a product under a filter.
	add("twotable", "bench/fk_join_top5, comma form", "SELECT c.name, o.oid, o.amount FROM customers c, orders o WHERE c.id = o.cust_id AND c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5", intParams(7)...)
	add("partitioned", "events: join, fragments on the left, CROSS JOIN form", "SELECT e.oid, c.name FROM events e CROSS JOIN customers c WHERE e.cust_id = c.id AND e.oid < 20")
	add("capability", "three-way join, comma form", "SELECT c.name, k.amount, f.region FROM customers c, orders_kv k, orders_file f WHERE c.id = k.cust_id AND k.oid = f.oid AND c.id < 3")
	return cs
}

// renderPlans explains every corpus statement under every variant. A
// statement's variants that produce the same text share one block, and
// the default's block does not list the variants that agree with it.
func renderPlans(t *testing.T) string {
	fixtures := testFixtures(t)
	var b strings.Builder
	for _, c := range planCorpus() {
		f := fixtures[c.fixture]
		fmt.Fprintf(&b, "== %s [%s]\n   %s", c.name, c.fixture, c.sql)
		if len(c.params) > 0 {
			fmt.Fprintf(&b, "  -- params %v", types.Row(c.params))
		}
		b.WriteByte('\n')
		var texts []string
		names := map[string][]string{}
		for _, v := range planVariants {
			setVariant(f, v)
			text, err := f.Engine.Explain(ctx, c.sql, c.params...)
			if err != nil {
				t.Errorf("%s under %s: %v", c.name, v.name, err)
			}
			if _, seen := names[text]; !seen {
				texts = append(texts, text)
			}
			names[text] = append(names[text], v.name)
		}
		// The first block is the default plan; the variants that leave
		// it alone are the ones no later block names.
		for i, text := range texts {
			if i == 0 {
				fmt.Fprintf(&b, "-- default\n%s", text)
				continue
			}
			fmt.Fprintf(&b, "-- %s\n%s", strings.Join(names[text], ", "), text)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPlansGolden pins the optimizer's output: Engine.Explain for the
// corpus above under the default options and under each single-switch
// variant must reproduce testdata/plans.golden byte for byte. A change
// that means to move a plan regenerates the file with
// `go test ./internal/workload -run TestPlansGolden -update` and reviews
// the diff.
func TestPlansGolden(t *testing.T) {
	const path = "testdata/plans.golden"
	got := renderPlans(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	header := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			header = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("plans differ from %s at line %d, under %q:\n got: %s\nwant: %s", path, i+1, header, gl[i], wl[i])
		}
	}
	t.Fatalf("plans differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
}

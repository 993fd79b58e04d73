package plan

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/stats"
	"gis/internal/types"
)

// newPlanFixture builds a catalog with a relational source (full
// pushdown) and a keyed source, plus a two-fragment partitioned table.
func newPlanFixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	ctx := context.Background()
	rs := relstore.New("rel")
	if err := rs.CreateTable("t1", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindString},
		types.Column{Name: "c", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString([]string{"x", "y", "z"}[i%3]),
			types.NewFloat(float64(i)),
		})
	}
	if _, err := rs.Insert(ctx, "t1", rows); err != nil {
		t.Fatal(err)
	}
	if err := rs.CreateTable("t2", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "d", Type: types.KindInt},
	), 0); err != nil {
		t.Fatal(err)
	}
	var rows2 []types.Row
	for i := 0; i < 10; i++ {
		rows2 = append(rows2, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 100))})
	}
	if _, err := rs.Insert(ctx, "t2", rows2); err != nil {
		t.Fatal(err)
	}

	kv := kvstore.New("kvs")
	if err := kv.CreateBucket("big", types.NewSchema(
		types.Column{Name: "k", Type: types.KindInt},
		types.Column{Name: "v", Type: types.KindString},
	), 0); err != nil {
		t.Fatal(err)
	}
	var kvRows []types.Row
	for i := 0; i < 1000; i++ {
		kvRows = append(kvRows, types.Row{types.NewInt(int64(i)), types.NewString("v")})
	}
	if _, err := kv.Insert(ctx, "big", kvRows); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	if err := cat.AddSource(rs); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddSource(kv); err != nil {
		t.Fatal(err)
	}
	for _, def := range []struct {
		name string
		sch  *types.Schema
		src  string
		tbl  string
	}{
		{"t1", types.NewSchema(
			types.Column{Name: "a", Type: types.KindInt},
			types.Column{Name: "b", Type: types.KindString},
			types.Column{Name: "c", Type: types.KindFloat}), "rel", "t1"},
		{"t2", types.NewSchema(
			types.Column{Name: "a", Type: types.KindInt},
			types.Column{Name: "d", Type: types.KindInt}), "rel", "t2"},
		{"big", types.NewSchema(
			types.Column{Name: "k", Type: types.KindInt},
			types.Column{Name: "v", Type: types.KindString}), "kvs", "big"},
	} {
		if err := cat.DefineTable(def.name, def.sch); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapSimple(context.Background(), def.name, def.src, def.tbl); err != nil {
			t.Fatal(err)
		}
	}
	// Install stats.
	for _, name := range []string{"t1", "t2"} {
		tab, _ := cat.Table(name)
		ts, err := rs.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		tab.Fragments[0].SetStats(ts)
	}
	return cat
}

// planQuery parses, builds, and optimizes.
func planQuery(t testing.TB, cat *catalog.Catalog, q string, opts *Options) Node {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	logical, err := NewBuilder(cat).BuildSelect(sel)
	if err != nil {
		t.Fatalf("build %q: %v", q, err)
	}
	optimized, err := Optimize(context.Background(), logical, cat, opts)
	if err != nil {
		t.Fatalf("optimize %q: %v", q, err)
	}
	return optimized
}

func TestFilterPushedIntoSourceQuery(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT b FROM t1 WHERE a > 5 AND c < 50", nil)
	out := Explain(p)
	if !strings.Contains(out, "FragScan rel.t1") {
		t.Fatalf("plan:\n%s", out)
	}
	if !strings.Contains(out, "where") {
		t.Errorf("filter not pushed:\n%s", out)
	}
	// No mediator-side Filter should remain.
	if strings.Contains(out, "\nFilter") || strings.HasPrefix(out, "Filter") {
		t.Errorf("residual mediator filter:\n%s", out)
	}
}

func TestFilterCompensatedForWeakSource(t *testing.T) {
	cat := newPlanFixture(t)
	// v = 'v' is a non-key predicate: the kv source cannot evaluate it.
	p := planQuery(t, cat, "SELECT k FROM big WHERE v = 'x' AND k < 10", nil)
	out := Explain(p)
	if !strings.Contains(out, "globalFilter=(v = 'x')") {
		t.Errorf("the conjunct the source cannot evaluate should stay with the mediator as written:\n%s", out)
	}
	// Key predicate went remote.
	if !strings.Contains(out, "[scan big where (k < 10)]") {
		t.Errorf("key predicate should push:\n%s", out)
	}
}

func TestProjectionPruned(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT b FROM t1", nil)
	fs := findFragScan(p)
	if fs == nil {
		t.Fatalf("no FragScan in:\n%s", Explain(p))
	}
	if len(fs.Query.Columns) != 1 {
		t.Errorf("pushed columns = %v, want just b", fs.Query.Columns)
	}
	// Without pruning, all columns ship.
	opts := DefaultOptions()
	opts.PruneColumns = false
	p = planQuery(t, cat, "SELECT b FROM t1", opts)
	fs = findFragScan(p)
	if fs != nil && len(fs.Query.Columns) == 1 {
		t.Error("pruning disabled but projection still narrowed")
	}
}

// first is the first node of type T in n's tree, in pre-order.
func first[T Node](n Node) (T, bool) {
	if t, ok := n.(T); ok {
		return t, true
	}
	var found T
	ok := false
	EachInput(n, func(in *Node) {
		if !ok {
			found, ok = first[T](*in)
		}
	})
	return found, ok
}

func findFragScan(n Node) *FragScan {
	found, _ := first[*FragScan](n)
	return found
}

func findJoin(n Node) *Join {
	found, _ := first[*Join](n)
	return found
}

func TestEquiKeysExtracted(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT t1.b FROM t1 JOIN t2 ON t1.a = t2.a", nil)
	j := findJoin(p)
	if j == nil {
		t.Fatalf("no join in:\n%s", Explain(p))
	}
	if len(j.EquiL) != 1 || len(j.EquiR) != 1 {
		t.Errorf("equi keys = %v/%v", j.EquiL, j.EquiR)
	}
}

// TestCommaJoinPlansAsOn: a comma or CROSS join is an inner join with
// no condition, and a WHERE conjunct over both of its sides becomes its
// condition, so the SQL-89 spelling of a join plans exactly as JOIN …
// ON does — hash keys, key shipping and join order included.
func TestCommaJoinPlansAsOn(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, c := range []struct{ name, on, comma string }{
		{"fk_join_top5",
			"SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5",
			"SELECT c.name, o.oid, o.amount FROM customers c, orders o WHERE c.id = o.cust_id AND c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5"},
		{"fragments on the left",
			"SELECT e.oid, c.name FROM events e JOIN customers c ON e.cust_id = c.id WHERE e.oid < ?",
			"SELECT e.oid, c.name FROM events e CROSS JOIN customers c WHERE e.cust_id = c.id AND e.oid < ?"},
		{"three-table chain",
			"SELECT c.name, o.oid, e.amount FROM customers c JOIN orders o ON c.id = o.cust_id JOIN events e ON o.cust_id = e.cust_id WHERE c.id < ?",
			"SELECT c.name, o.oid, e.amount FROM customers c, orders o, events e WHERE c.id = o.cust_id AND o.cust_id = e.cust_id AND c.id < ?"},
	} {
		var explained [2]string
		for i, text := range []string{c.on, c.comma} {
			n, err := planOnce(cat, text, ints(3))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			explained[i] = Explain(n)
		}
		if explained[0] != explained[1] {
			t.Errorf("%s: the comma form plans differently\nON:\n%s\ncomma:\n%s", c.name, explained[0], explained[1])
		}
	}
}

func TestStrategyChoice(t *testing.T) {
	cat := newPlanFixture(t)
	// t2 (10 rows) joined against big (1000 rows, keyed): tiny left →
	// its keys are shipped.
	p := planQuery(t, cat, "SELECT t2.d FROM t2 JOIN big ON t2.a = big.k", nil)
	j := findJoin(p)
	if j == nil {
		t.Fatal("no join")
	}
	if j.Strategy != StrategySemiJoin {
		t.Errorf("strategy = %s, want semijoin for tiny left", j.Strategy)
	}
	// Forced strategy is honored.
	opts := DefaultOptions()
	opts.ForceStrategy = StrategyShipAll
	p = planQuery(t, cat, "SELECT t2.d FROM t2 JOIN big ON t2.a = big.k", opts)
	if j = findJoin(p); j.Strategy != StrategyShipAll {
		t.Errorf("forced strategy ignored: %s", j.Strategy)
	}
}

func TestStrategyFallsBackWithoutEquiKeys(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT t2.d FROM t2 JOIN big ON t2.a < big.k", nil)
	j := findJoin(p)
	if j.Strategy != StrategyShipAll {
		t.Errorf("non-equi join must ship all, got %s", j.Strategy)
	}
}

func TestJoinReorderProducesProjection(t *testing.T) {
	cat := newPlanFixture(t)
	// Three relations trigger the reorder path; the output order must
	// be the select list's whatever order the search chose.
	p := planQuery(t, cat,
		"SELECT t1.a, t2.d, big.v FROM t1 JOIN t2 ON t1.a = t2.a JOIN big ON t2.a = big.k", nil)
	s := p.Schema()
	if s.Len() != 3 || s.Columns[0].Name != "a" || s.Columns[1].Name != "d" || s.Columns[2].Name != "v" {
		t.Errorf("output schema = %v", s)
	}
}

func TestEstimateRowsSanity(t *testing.T) {
	cat := newPlanFixture(t)
	full := planQuery(t, cat, "SELECT a FROM t1", nil)
	filtered := planQuery(t, cat, "SELECT a FROM t1 WHERE a < 10", nil)
	if EstimateRows(filtered) >= EstimateRows(full) {
		t.Errorf("filtered estimate %g >= full %g", EstimateRows(filtered), EstimateRows(full))
	}
	limited := planQuery(t, cat, "SELECT a FROM t1 LIMIT 3", nil)
	if EstimateRows(limited) > 3.01 {
		t.Errorf("limit estimate = %g", EstimateRows(limited))
	}
}

// TestGroupEstimateReadsNDV: a grouping is priced at the number of
// distinct combinations its keys take, the product of their columns'
// NDV, and no more than its input — read on the scan statistics whether
// the source groups (a pushed aggregation) or the mediator does, through
// a join, and 1 for a column the fragment maps to a constant. The final
// half of a split aggregation reads its keys through the union of
// partial groupings, as the fragments' NDV merged; a union of fragments
// that each map a column to a constant holds as many values as there are
// distinct constants. A key that is not a column keeps a tenth of the
// input. None of it allocates.
func TestGroupEstimateReadsNDV(t *testing.T) {
	cat := newBenchCatalog(t)
	site := types.NewString("hq")
	if err := cat.DefineTable("sited", types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "site", Type: types.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapFragment(context.Background(), "sited", &catalog.Fragment{Source: "src_o", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: -1, Const: &site}}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineTable("sites", types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "site", Type: types.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	for i, s := range []string{"s0", "s1", "s2", "s1"} {
		c := types.NewString(s)
		if err := cat.MapFragment(context.Background(), "sites", &catalog.Fragment{Source: fmt.Sprintf("wan_e%d", i), RemoteTable: "events",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: -1, Const: &c}}}); err != nil {
			t.Fatal(err)
		}
	}
	const join = "FROM customers c JOIN orders o ON c.id = o.cust_id "
	for _, c := range []struct {
		name, sql string
		want      float64 // 0: a tenth of the grouping's input, -1: its input, -2: split
	}{
		{"pushed, NDV 4", "SELECT region, COUNT(*) FROM orders GROUP BY region", 4},
		{"under a join, NDV 4", "SELECT o.region, COUNT(*) " + join + "GROUP BY o.region", 4},
		{"under a join, NDV 40", "SELECT o.cust_id, COUNT(*) " + join + "GROUP BY o.cust_id", 40},
		{"two columns, 40 × 4", "SELECT o.cust_id, o.region, COUNT(*) " + join + "GROUP BY o.cust_id, o.region", 160},
		{"no more than its input", "SELECT o.oid, COUNT(*) " + join + "WHERE c.id = 3 GROUP BY o.oid", -1},
		{"constant-mapped", "SELECT site, COUNT(*) FROM sited GROUP BY site", 1},
		{"three constants over four fragments", "SELECT site, COUNT(*) FROM sites GROUP BY site", 3},
		{"split, NDV 4 in each of 8 fragments", "SELECT region, COUNT(*) FROM events GROUP BY region", -2},
		{"split, NDV 40 in each of 8 fragments", "SELECT cust_id, SUM(amount) FROM events GROUP BY cust_id", -2},
		{"an expression", "SELECT oid % 7, COUNT(*) FROM orders GROUP BY oid % 7", 0},
	} {
		p := planQuery(t, cat, c.sql, nil)
		var grouping Node
		want := c.want
		if a := findAggregate(p); a != nil {
			grouping = a
			switch want {
			case 0:
				want = EstimateRows(a.Input) / 10
			case -1:
				want = EstimateRows(a.Input)
			case -2:
				// No more groups than the fragments formed, nor than
				// the values their statistics merge to.
				var merged int64
				for _, fs := range FragScans(a.Input) {
					if len(fs.Query.GroupBy) != 1 {
						t.Fatalf("%s: want a union of partial groupings by one key:\n%s", c.name, Explain(p))
					}
					merged = stats.MergeNDV(merged, fs.Frag.Stats().Columns[fs.Query.GroupBy[0]].NDV)
				}
				want = min(EstimateRows(a.Input), float64(merged))
			}
		} else if fs := findFragScan(p); fs != nil && len(fs.Query.GroupBy) > 0 && want > 0 {
			grouping = fs
		} else {
			t.Fatalf("%s: no grouping to read in\n%s", c.name, Explain(p))
		}
		if got := EstimateRows(grouping); math.Abs(got-want) > 1e-9 || want < 1 {
			t.Errorf("%s: grouping estimated at %g rows, want %g:\n%s", c.name, got, want, Explain(p))
		}
		if allocs := testing.AllocsPerRun(10, func() { EstimateRows(grouping) }); allocs != 0 {
			t.Errorf("%s: EstimateRows allocates %.0f objects", c.name, allocs)
		}
	}
}

func findAggregate(n Node) *Aggregate {
	found, _ := first[*Aggregate](n)
	return found
}

func TestExplainIndentation(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT b, COUNT(*) FROM t1 GROUP BY b ORDER BY b LIMIT 2", nil)
	out := Explain(p)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("explain too shallow:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "Limit") {
		t.Errorf("top of plan = %q", lines[0])
	}
	// The aggregation pushed into the (capable, single-fragment) source.
	if !strings.Contains(out, "aggs[COUNT(*)]") {
		t.Errorf("aggregation neither local nor pushed:\n%s", out)
	}
}

func TestAggregatePushdownWhole(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT b, COUNT(*), SUM(a), AVG(c) FROM t1 WHERE a > 5 GROUP BY b", nil)
	fs := findFragScan(p)
	if fs == nil || !fs.Query.HasAggregation() {
		t.Fatalf("aggregation not pushed:\n%s", Explain(p))
	}
	if fs.Out != nil || fs.Cols != nil || fs.GlobalResidual != nil {
		t.Error("pushed-agg scan must leave the mediator nothing to do")
	}
	// Disabled by ablation switch.
	opts := DefaultOptions()
	opts.PushAggregates = false
	p = planQuery(t, cat, "SELECT b, COUNT(*) FROM t1 GROUP BY b", opts)
	if fs := findFragScan(p); fs != nil && fs.Query.HasAggregation() {
		t.Error("aggregation pushed despite ablation")
	}
}

func TestAggregateNotPushedPastResidual(t *testing.T) {
	cat := newPlanFixture(t)
	// The kv source can't evaluate v='x', so a residual filter remains
	// and aggregation must stay at the mediator (kv also lacks agg
	// capability — both conditions block it).
	p := planQuery(t, cat, "SELECT COUNT(*) FROM big WHERE v = 'x'", nil)
	fs := findFragScan(p)
	if fs == nil {
		t.Fatalf("plan:\n%s", Explain(p))
	}
	if fs.Query.HasAggregation() {
		t.Error("aggregation pushed into incapable source")
	}
	if !strings.Contains(Explain(p), "Aggregate") {
		t.Errorf("mediator aggregate missing:\n%s", Explain(p))
	}
	// DISTINCT aggregates never push.
	p = planQuery(t, cat, "SELECT COUNT(DISTINCT b) FROM t1", nil)
	if fs := findFragScan(p); fs != nil && fs.Query.HasAggregation() {
		t.Error("DISTINCT aggregate pushed")
	}
}

func TestBuildErrors(t *testing.T) {
	cat := newPlanFixture(t)
	builder := NewBuilder(cat)
	bad := []string{
		"SELECT x FROM t1",
		"SELECT a FROM ghost",
		"SELECT SUM(a) FROM t1 WHERE SUM(a) > 1",
		"SELECT a FROM t1 GROUP BY b",
		"SELECT t9.* FROM t1",
	}
	for _, q := range bad {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := builder.BuildSelect(sel); err == nil {
			t.Errorf("BuildSelect(%q) should fail", q)
		}
	}
}

func TestValuesNodeForNoFrom(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT 1 + 2 AS three", nil)
	if p.Schema().Columns[0].Name != "three" {
		t.Errorf("schema = %v", p.Schema())
	}
}

func TestTopKPushdownSingleFragment(t *testing.T) {
	cat := newPlanFixture(t)
	// Sort alone disappears into the capable source.
	p := planQuery(t, cat, "SELECT a FROM t1 ORDER BY a DESC", nil)
	if _, isSort := p.(*Sort); isSort {
		t.Errorf("sort not pushed:\n%s", Explain(p))
	}
	fs := findFragScan(p)
	if len(fs.Query.OrderBy) != 1 || !fs.Query.OrderBy[0].Desc {
		t.Errorf("remote order = %v", fs.Query.OrderBy)
	}
	// Limit+Sort ships offset+N.
	p = planQuery(t, cat, "SELECT a FROM t1 ORDER BY a LIMIT 5 OFFSET 2", nil)
	fs = findFragScan(p)
	if fs.Query.Limit != 7 {
		t.Errorf("remote limit = %d, want 7 (offset+N)", fs.Query.Limit)
	}
	if _, isLimit := p.(*Limit); !isLimit {
		t.Errorf("mediator limit must remain:\n%s", Explain(p))
	}
	// Ablation switch.
	opts := DefaultOptions()
	opts.PushTopK = false
	p = planQuery(t, cat, "SELECT a FROM t1 ORDER BY a LIMIT 5", opts)
	if fs = findFragScan(p); fs.Query.Limit >= 0 || len(fs.Query.OrderBy) > 0 {
		t.Error("top-k pushed despite ablation")
	}
}

func TestTopKNotPushedToWeakSource(t *testing.T) {
	cat := newPlanFixture(t)
	// kvstore has no sort capability: the mediator keeps the Sort.
	p := planQuery(t, cat, "SELECT k FROM big ORDER BY k LIMIT 3", nil)
	out := Explain(p)
	if !strings.Contains(out, "Sort") {
		t.Errorf("mediator sort missing for weak source:\n%s", out)
	}
	fs := findFragScan(p)
	if len(fs.Query.OrderBy) != 0 {
		t.Error("order pushed into incapable source")
	}
}

// The Sort a Limit reads offset+N rows of is told so — through the
// projection that drops a hidden ORDER BY column, too — and keeps that
// many at the mediator. OFFSET alone is a limit of 1<<62; a sum that
// overflows, or no Limit, or the rule switched off, leaves the full sort.
func TestLimitBoundsTheSortBelowIt(t *testing.T) {
	cat := newPlanFixture(t)
	off := DefaultOptions()
	off.PushTopK = false
	for _, c := range []struct {
		q    string
		opts *Options
		top  int64
	}{
		{"SELECT k FROM big ORDER BY k LIMIT 3", nil, 3},
		{"SELECT k FROM big ORDER BY v DESC, k LIMIT 5 OFFSET 2", nil, 7},
		{"SELECT b1.k FROM big b1 JOIN big b2 ON b1.k = b2.k ORDER BY b2.v LIMIT 4", nil, 4},
		{"SELECT k FROM big ORDER BY k OFFSET 4", nil, 1<<62 + 4},
		{"SELECT k FROM big ORDER BY k LIMIT 9223372036854775807 OFFSET 4", nil, 0},
		{"SELECT k FROM big ORDER BY k", nil, 0},
		{"SELECT k FROM (SELECT k FROM big ORDER BY k) q LIMIT 3", nil, 3},
		{"SELECT k FROM big ORDER BY k LIMIT 3", off, 0},
	} {
		p := planQuery(t, cat, c.q, c.opts)
		var found *Sort
		var walk func(n Node)
		walk = func(n Node) {
			if s, ok := n.(*Sort); ok {
				found = s
			}
			EachInput(n, func(in *Node) { walk(*in) })
		}
		walk(p)
		if found == nil || found.Top != c.top {
			t.Errorf("%s: the mediator's Sort keeps %+v rows, want %d\n%s", c.q, found, c.top, Explain(p))
		}
		if c.top > 0 && !strings.Contains(Explain(p), fmt.Sprintf(" top %d\n", c.top)) {
			t.Errorf("%s: EXPLAIN does not say so:\n%s", c.q, Explain(p))
		}
	}
}

func TestBareLimitPushedAsSuperset(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT a FROM t1 LIMIT 4", nil)
	fs := findFragScan(p)
	if fs.Query.Limit != 4 {
		t.Errorf("bare limit not shipped: %d", fs.Query.Limit)
	}
}

// newPartitionedFixture maps one table over two relstores for plan-level
// partial-aggregation and distributed top-k assertions.
func newPartitionedFixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	ctx := context.Background()
	cat := catalog.New()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "grp", Type: types.KindString},
		types.Column{Name: "val", Type: types.KindFloat},
	)
	cat.DefineTable("events", schema)
	for p := 0; p < 2; p++ {
		name := []string{"sA", "sB"}[p]
		st := relstore.New(name)
		if err := st.CreateTable("ev", schema, 0); err != nil {
			t.Fatal(err)
		}
		var rows []types.Row
		for i := 0; i < 50; i++ {
			rows = append(rows, types.Row{
				types.NewInt(int64(p*50 + i)),
				types.NewString([]string{"g1", "g2"}[i%2]),
				types.NewFloat(float64(i)),
			})
		}
		if _, err := st.Insert(ctx, "ev", rows); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddSource(st); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapSimple(context.Background(), "events", name, "ev"); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestPartialAggregationPlanShape(t *testing.T) {
	cat := newPartitionedFixture(t)
	p := planQuery(t, cat, "SELECT grp, COUNT(*), AVG(val) FROM events GROUP BY grp", nil)
	out := Explain(p)
	// Per-fragment partial aggregation: both fragment scans aggregate,
	// AVG decomposed into SUM+COUNT.
	if !strings.Contains(out, "SUM($") || !strings.Contains(out, "COUNT(*)") {
		t.Errorf("partials not pushed:\n%s", out)
	}
	// A final Aggregate combines, and a Project computes AVG.
	if !strings.Contains(out, "Aggregate") || !strings.HasPrefix(out, "Project") {
		t.Errorf("combine phase missing:\n%s", out)
	}
	// DISTINCT blocks the partial pushdown.
	p = planQuery(t, cat, "SELECT COUNT(DISTINCT grp) FROM events", nil)
	if fs := findFragScan(p); fs != nil && fs.Query.HasAggregation() {
		t.Error("DISTINCT partial aggregation pushed")
	}
}

func TestDistributedTopKPlanShape(t *testing.T) {
	cat := newPartitionedFixture(t)
	p := planQuery(t, cat, "SELECT id FROM events ORDER BY val DESC LIMIT 3", nil)
	out := Explain(p)
	if !strings.Contains(out, "limit 3") {
		t.Errorf("per-fragment limit missing:\n%s", out)
	}
	if !strings.Contains(out, "Sort") || !strings.Contains(out, "Limit 3") {
		t.Errorf("mediator top-k missing:\n%s", out)
	}
}

func TestUnionAllFragmentsParallelFlag(t *testing.T) {
	cat := newPartitionedFixture(t)
	p := planQuery(t, cat, "SELECT id FROM events", nil)
	u := findUnion(p)
	if u == nil || !u.Parallel || !u.All {
		t.Fatalf("fragment union = %+v in\n%s", u, Explain(p))
	}
	opts := DefaultOptions()
	opts.ParallelFragments = false
	p = planQuery(t, cat, "SELECT id FROM events", opts)
	if u = findUnion(p); u == nil || u.Parallel {
		t.Error("sequential fragments requested but union is parallel")
	}
}

func findUnion(n Node) *Union {
	found, _ := first[*Union](n)
	return found
}

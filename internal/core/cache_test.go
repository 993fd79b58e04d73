package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// cachedPlan is the statement cache's entry for text and the plan of
// an idle instance of it; nil when it keeps none.
func (e *Engine) cachedPlan(text string) (*template, plan.Node) {
	e.stmts.mu.Lock()
	defer e.stmts.mu.Unlock()
	t := e.stmts.m[text]
	if t == nil || t.nIdle == 0 {
		return t, nil
	}
	return t, t.idle[0].plan
}

// idlePlans is how many idle plans the statement cache keeps of text.
func (e *Engine) idlePlans(text string) int {
	e.stmts.mu.Lock()
	defer e.stmts.mu.Unlock()
	if t := e.stmts.m[text]; t != nil {
		return t.nIdle
	}
	return 0
}

// TestStatementCacheFollowsTheCatalog runs fk_join_top5 twice with a
// change between the calls that a plan may read — statistics, a new
// fragment, a view, a source, the optimizer's options — and finds the
// second call planned again: its answer is a fresh engine's, made with
// the change, and the plan it kept prints as that engine's EXPLAIN. A
// plan checked out across a change of the catalog — a stream of it open
// while statistics are collected or a fragment is mapped — is dropped
// when the stream closes, and the next call is planned under the new
// generation; so is a kept write checked out by an UPDATE that a
// component holds up across the change.
func TestStatementCacheFollowsTheCatalog(t *testing.T) {
	text := sharedShapes[2].sql
	params := ints(3)
	moreOrders := func(lo, hi int) []types.Row {
		rows := make([]types.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(3), types.NewFloat(float64(i)), types.NewString("east")})
		}
		return rows
	}
	// spare is a second orders source; "MapFragment" maps it.
	spare := func(t *testing.T, e *Engine) {
		st := relstore.New("src_o2")
		if err := st.CreateTable("orders", ordersSchemaForTest(), 0); err != nil {
			t.Fatal(err)
		}
		mustInsert(t, st, "orders", moreOrders(1000, 1010))
		if err := e.Catalog().AddSource(st); err != nil {
			t.Fatal(err)
		}
	}
	changes := []struct {
		name   string
		before func(*testing.T, *Engine)
		change func(*testing.T, *Engine)
	}{
		{"Analyze", nil, func(t *testing.T, e *Engine) {
			src, err := e.Catalog().Source("src_o")
			if err != nil {
				t.Fatal(err)
			}
			mustInsert(t, src.(*relstore.Store), "orders", moreOrders(400, 2400))
			if err := e.Analyze(ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{"MapFragment", spare, func(t *testing.T, e *Engine) {
			if err := e.Catalog().MapSimple(ctx, "orders", "src_o2", "orders"); err != nil {
				t.Fatal(err)
			}
		}},
		{"CreateView", nil, func(t *testing.T, e *Engine) {
			if err := e.CreateView("v_orders", "SELECT * FROM orders"); err != nil {
				t.Fatal(err)
			}
		}},
		{"AddSource", nil, func(t *testing.T, e *Engine) {
			if err := e.Catalog().AddSource(relstore.New("src_x")); err != nil {
				t.Fatal(err)
			}
		}},
		{"PlanOptions", nil, func(t *testing.T, e *Engine) {
			e.PlanOptions().ForceStrategy = plan.StrategyShipAll
		}},
	}
	for _, c := range changes {
		t.Run(c.name, func(t *testing.T) {
			e, fresh := sharedEngine(t), sharedEngine(t)
			if c.before != nil {
				c.before(t, e)
				c.before(t, fresh)
			}
			if _, err := e.Query(ctx, text, params...); err != nil {
				t.Fatal(err)
			}
			first, _ := e.cachedPlan(text)
			if first == nil {
				t.Fatal("the first call kept nothing")
			}
			c.change(t, e)
			c.change(t, fresh)
			got, err := e.Query(ctx, text, params...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(ctx, text, params...)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(got.Schema.Columns, got.Rows), fmt.Sprint(want.Schema.Columns, want.Rows); g != w {
				t.Errorf("after the change: %s, a fresh engine %s", g, w)
			}
			second, kept := e.cachedPlan(text)
			if second == first || kept == nil {
				t.Fatalf("the change did not replace the kept plan (%v)", kept != nil)
			}
			wantPlan, err := fresh.Explain(ctx, text, params...)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Explain(kept); got != wantPlan {
				t.Errorf("kept plan\n%swant\n%s", got, wantPlan)
			}
		})
	}
	for _, c := range changes[:2] {
		t.Run(c.name+" while a stream is open", func(t *testing.T) {
			e, fresh := sharedEngine(t), sharedEngine(t)
			if c.before != nil {
				c.before(t, e)
				c.before(t, fresh)
			}
			e.SetTracing(true)
			if _, err := e.Query(ctx, text, params...); err != nil {
				t.Fatal(err)
			}
			first, _ := e.cachedPlan(text)
			_, it, err := e.QueryIter(ctx, text, params...)
			if err != nil {
				t.Fatal(err)
			}
			if n := e.idlePlans(text); n != 0 {
				t.Fatalf("the stream did not check out the kept plan: %d idle", n)
			}
			c.change(t, e)
			c.change(t, fresh)
			if _, err := source.Drain(it); err != nil {
				t.Fatal(err)
			}
			if n := e.idlePlans(text); n != 0 {
				t.Errorf("a plan made before the change was handed back: %d idle", n)
			}
			got, err := e.Query(ctx, text, params...)
			if err != nil {
				t.Fatal(err)
			}
			if parse := e.TraceLast().Data().FindAll(obs.SpanParse); len(parse) != 1 || parse[0].Name != "" {
				t.Errorf("the call after the change: %d parse spans, want one, planned under the new generation", len(parse))
			}
			want, err := fresh.Query(ctx, text, params...)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(got.Schema.Columns, got.Rows), fmt.Sprint(want.Schema.Columns, want.Rows); g != w {
				t.Errorf("after the change: %s, a fresh engine %s", g, w)
			}
			if second, _ := e.cachedPlan(text); second == first || e.idlePlans(text) != 1 {
				t.Errorf("the call after the change kept %d idle plans in a new entry: %v", e.idlePlans(text), second != first)
			}
		})
	}
	for _, c := range changes[:2] {
		t.Run(c.name+" while a write is held", func(t *testing.T) {
			e := sharedEngine(t)
			if c.before != nil {
				c.before(t, e)
			}
			st := &stalling{Store: relstore.New("src_l"), entered: make(chan struct{}), release: make(chan struct{})}
			if err := st.CreateTable("ledger", ordersSchemaForTest(), 0); err != nil {
				t.Fatal(err)
			}
			mustInsert(t, st.Store, "ledger", moreOrders(0, 10))
			if err := e.Catalog().AddSource(st); err != nil {
				t.Fatal(err)
			}
			if err := e.Catalog().DefineTable("ledger", ordersSchemaForTest()); err != nil {
				t.Fatal(err)
			}
			if err := e.Catalog().MapSimple(ctx, "ledger", "src_l", "ledger"); err != nil {
				t.Fatal(err)
			}
			const upd = "UPDATE ledger SET amount = amount + ? WHERE oid = ?"
			exec := func() error {
				n, err := e.Exec(ctx, upd, types.NewFloat(1), types.NewInt(3))
				if err == nil && n != 1 {
					err = fmt.Errorf("%d rows updated, want 1", n)
				}
				return err
			}
			if err := exec(); err != nil {
				t.Fatal(err)
			}
			first, _ := e.cachedPlan(upd)
			if first == nil || e.idlePlans(upd) != 1 {
				t.Fatalf("the first call kept %d writes", e.idlePlans(upd))
			}
			st.armed.Store(true)
			done := make(chan error, 1)
			go func() { done <- exec() }()
			<-st.entered
			if n := e.idlePlans(upd); n != 0 {
				t.Errorf("the held write did not check out the kept one: %d idle", n)
			}
			c.change(t, e)
			st.armed.Store(false)
			st.release <- struct{}{}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := e.idlePlans(upd); n != 0 {
				t.Errorf("a write kept before the change was handed back: %d idle", n)
			}
			e.SetTracing(true)
			if err := exec(); err != nil {
				t.Fatal(err)
			}
			if parse := e.TraceLast().Data().FindAll(obs.SpanParse); len(parse) != 1 || parse[0].Name != "" {
				t.Errorf("the call after the change: %d parse spans, want one, built under the new generation", len(parse))
			}
			if second, _ := e.cachedPlan(upd); second == first || e.idlePlans(upd) != 1 {
				t.Errorf("the call after the change kept %d idle writes in a new entry: %v", e.idlePlans(upd), second != first)
			}
			if got := remoteRows(t, st.Store, "ledger"); !strings.Contains(got, "(3, 3, 6, east)") {
				t.Errorf("ledger after three updates of oid 3 by 1: %s", got)
			}
		})
	}
}

// stalling is a relstore whose autocommit UPDATE, while armed, tells
// entered and waits for release before it writes.
type stalling struct {
	*relstore.Store
	armed            atomic.Bool
	entered, release chan struct{}
}

func (s *stalling) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	if s.armed.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.Store.Update(ctx, table, filter, set)
}

// ordersSchemaForTest is sharedEngine's orders schema.
func ordersSchemaForTest() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
}

// TestCacheHitIsAStatement holds a hit to what every statement is: it is
// admitted (a held slot sheds it), logged, and traced, under a parse span
// named cached and no other planning span; the first call has them all.
// EXPLAIN neither reads nor fills the cache, and a statement that is
// planned on every call keeps no plan.
func TestCacheHitIsAStatement(t *testing.T) {
	e := sharedEngine(t)
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MaxQueue: 1})
	e.SetAdmission(ctrl)
	e.SetTracing(true)
	e.Queries().SetThreshold(0)
	text := sharedShapes[0].sql
	if _, err := e.Explain(ctx, text, ints(17)...); err != nil {
		t.Fatal(err)
	}
	if tm, _ := e.cachedPlan(text); tm != nil {
		t.Fatal("EXPLAIN filled the cache")
	}
	// A planning span by kind and name; exec spans by kind.
	spans := func() map[string]int {
		out := map[string]int{}
		for _, k := range []obs.SpanKind{obs.SpanParse, obs.SpanResolve, obs.SpanOptimize, obs.SpanDecompose} {
			for _, sp := range e.TraceLast().Data().FindAll(k) {
				out[k.String()+"/"+sp.Name]++
			}
		}
		out["exec"] = len(e.TraceLast().Data().FindAll(obs.SpanExec))
		return out
	}
	if _, err := e.Query(ctx, text, ints(17)...); err != nil {
		t.Fatal(err)
	}
	if got := spans(); got["parse/"] != 1 || got["resolve/"] != 1 || got["optimize/"] != 1 || got["decompose/"] != 1 || got["exec"] == 0 {
		t.Errorf("first call's spans: %v", got)
	}
	res, err := e.Query(ctx, text, ints(18)...)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 18 {
		t.Fatalf("hit: %v, %v", res, err)
	}
	if got := spans(); got["parse/cached"] != 1 || got["parse/"] != 0 || got["resolve/"] != 0 || got["optimize/"] != 0 || got["exec"] == 0 {
		t.Errorf("hit's spans: %v", got)
	}
	// Run takes the same path as Query.
	if res, err := e.Run(ctx, text, ints(20)...); err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("Run's hit: %v, %v", res, err)
	}
	if got := spans(); got["parse/cached"] != 1 {
		t.Errorf("Run's hit's spans: %v", got)
	}
	logged := 0
	for _, q := range e.Queries().Slow() {
		if q.SQL == text {
			logged++
		}
	}
	if logged != 4 {
		t.Errorf("the query log holds %d of the text's 4 statements (an EXPLAIN, a miss, two hits)", logged)
	}
	// A hit waits for admission like any statement: with the one slot
	// held it is shed when its deadline passes.
	_, held, err := ctrl.Admit(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	_, err = e.Query(short, text, ints(19)...)
	cancel()
	held.Release()
	if !errors.Is(err, admission.ErrOverload) {
		t.Errorf("a hit with the only slot held: %v, want an overload", err)
	}
	// A range is kept and bound; on the partition column, values that
	// leave the scan other fragments than every idle plan reads are
	// parsed and planned afresh under a parse span named replanned, and
	// that plan is kept beside the others: one a set of fragments.
	for _, c := range []struct {
		sql    string
		params []types.Value
		span   string
		idle   int // the plans kept of the text after the call
	}{
		{"SELECT oid FROM orders WHERE oid >= ? AND oid < ?", ints(1, 4), "parse/", 1},
		{"SELECT oid FROM orders WHERE oid >= ? AND oid < ?", ints(10, 12), "parse/cached", 1},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(110, 120), "parse/", 1},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(101, 149), "parse/cached", 1},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(140, 160), "parse/replanned", 2},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(0, 3), "parse/replanned", 3},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(145, 155), "parse/cached", 3},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(7, 9), "parse/cached", 3},
		{"SELECT oid FROM events WHERE oid >= ? AND oid < ?", ints(120, 130), "parse/cached", 3},
	} {
		res, err := e.Query(ctx, c.sql, c.params...)
		if err != nil || int64(len(res.Rows)) != c.params[1].Int()-c.params[0].Int() {
			t.Fatalf("%s%v: %v, %v", c.sql, c.params, res, err)
		}
		got := spans()
		if got[c.span] != 1 || got["parse/"]+got["parse/cached"]+got["parse/replanned"] != 1 {
			t.Errorf("%s%v: spans %v, want one parse span, %s", c.sql, c.params, got, c.span)
		}
		if planned := got["optimize/"] == 1; planned != (c.span != "parse/cached") {
			t.Errorf("%s%v: planned %v under %s", c.sql, c.params, planned, c.span)
		}
		if n := e.idlePlans(c.sql); n != c.idle {
			t.Errorf("%s%v: %d plans kept, want %d", c.sql, c.params, n, c.idle)
		}
	}
	// A write is kept as a SELECT is: its second call is a hit, through
	// Exec or Run, under a parse span named cached and the one write span
	// it runs; a SELECT of the text it keeps is refused as the text is.
	const upd = "UPDATE orders SET amount = amount + ? WHERE oid = ?"
	for i, span := range []string{"parse/", "parse/cached", "parse/cached"} {
		params := []types.Value{types.NewFloat(0.25), types.NewInt(int64(30 + i))}
		var n int64
		if i < 2 {
			n, err = e.Exec(ctx, upd, params...)
		} else {
			res, rerr := e.Run(ctx, upd, params...)
			if err = rerr; err == nil {
				n = res.Rows[0][0].Int()
			}
		}
		if err != nil || n != 1 {
			t.Fatalf("%s%v: %d, %v", upd, params, n, err)
		}
		got := spans()
		if got[span] != 1 || got["parse/"]+got["parse/cached"] != 1 || got["resolve/"] != 0 || len(e.TraceLast().Data().FindAll(obs.SpanWrite)) != 1 {
			t.Errorf("call %d of %s: spans %v and %d write spans, want one parse span, %s, and one write span", i, upd, got, len(e.TraceLast().Data().FindAll(obs.SpanWrite)), span)
		}
	}
	if _, err := e.Query(ctx, upd, types.NewFloat(0.25), types.NewInt(30)); err == nil || !strings.Contains(err.Error(), "use Exec for *sql.UpdateStmt") {
		t.Errorf("Query of a kept write: %v", err)
	}
	if _, err := e.Exec(ctx, text, ints(17)...); err == nil || !strings.Contains(err.Error(), "not *sql.SelectStmt") {
		t.Errorf("Exec of a kept SELECT: %v", err)
	}
}

// TestStatementCacheIsBounded runs more texts than the cache keeps: it
// keeps stmtCacheSize, the last among them, and drops the others.
func TestStatementCacheIsBounded(t *testing.T) {
	e := sharedEngine(t)
	var last string
	for i := 0; i < stmtCacheSize+20; i++ {
		last = fmt.Sprintf("SELECT oid FROM orders WHERE oid = %d", i%400)
		if i >= 400 {
			last += fmt.Sprintf(" AND cust_id = %d", i%40)
		}
		if _, err := e.Query(ctx, last); err != nil {
			t.Fatal(err)
		}
	}
	e.stmts.mu.Lock()
	n := len(e.stmts.m)
	e.stmts.mu.Unlock()
	if n != stmtCacheSize {
		t.Errorf("the cache keeps %d texts, want %d", n, stmtCacheSize)
	}
	if tm, kept := e.cachedPlan(last); tm == nil || kept == nil {
		t.Errorf("the last text is not kept")
	}
}

// TestIdleListKeepsTheLatestSets runs a range over events' eight
// fragments with values that read twenty sets of them, more than a text
// keeps idle, and then each of the last sixteen again: each is a hit,
// since a full idle list drops the instance handed back longest ago. The
// first set, dropped, is then planned afresh.
func TestIdleListKeepsTheLatestSets(t *testing.T) {
	e := sharedEngine(t)
	e.SetTracing(true)
	const text = "SELECT oid FROM events WHERE oid >= ? AND oid < ?"
	// Fragments a to b, each holding 50 oids from 50·a.
	var ranges [][]types.Value
	for a := int64(0); a < 8 && len(ranges) < 20; a++ {
		for b := a; b < 8 && len(ranges) < 20; b++ {
			ranges = append(ranges, ints(50*a+1, 50*b+49))
		}
	}
	run := func(params []types.Value) string {
		t.Helper()
		res, err := e.Query(ctx, text, params...)
		if err != nil || int64(len(res.Rows)) != params[1].Int()-params[0].Int() {
			t.Fatalf("%v: %v, %v", params, res, err)
		}
		return e.TraceLast().Data().FindAll(obs.SpanParse)[0].Name
	}
	for _, r := range ranges {
		run(r)
	}
	if n := e.idlePlans(text); n != maxIdle {
		t.Fatalf("%d plans kept of %d sets, want %d", n, len(ranges), maxIdle)
	}
	for _, r := range ranges[len(ranges)-maxIdle:] {
		if got := run(r); got != "cached" {
			t.Errorf("%v again: parse span %q, want a hit", r, got)
		}
	}
	if got := run(ranges[0]); got != "replanned" {
		t.Errorf("%v, the set handed back first: parse span %q, want replanned", ranges[0], got)
	}
}

// TestEntryPointsAnswerAlikeHitOrMiss holds each entry point to one
// answer for a text whatever the statement cache keeps of it: Exec of a
// SELECT text, and Query and QueryIter of a write text, return the same
// error on a hit as on a miss, and Run returns the same result either
// way.
func TestEntryPointsAnswerAlikeHitOrMiss(t *testing.T) {
	e := sharedEngine(t)
	e.SetTracing(true)
	const sel = "SELECT oid, amount FROM orders WHERE oid = ?"
	const upd = "UPDATE orders SET amount = amount + ? WHERE oid = ?"
	selParams, updParams := ints(17), []types.Value{types.NewFloat(0.25), types.NewInt(17)}
	exec := func(text string, params []types.Value) string {
		n, err := e.Exec(ctx, text, params...)
		return fmt.Sprint(n, err)
	}
	query := func(text string, params []types.Value) string {
		res, err := e.Query(ctx, text, params...)
		return fmt.Sprint(res, err)
	}
	queryIter := func(text string, params []types.Value) string {
		schema, it, err := e.QueryIter(ctx, text, params...)
		if err == nil {
			_, err = source.Drain(it)
		}
		return fmt.Sprint(schema, err)
	}
	run := func(text string, params []types.Value) string {
		res, err := e.Run(ctx, text, params...)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(res.Schema.Columns, res.Rows)
	}
	for _, c := range []struct {
		name   string
		text   string
		params []types.Value
		call   func(string, []types.Value) string
		refuse string
	}{
		{"Exec of a SELECT", sel, selParams, exec, "not *sql.SelectStmt"},
		{"Query of an UPDATE", upd, updParams, query, "use Exec for *sql.UpdateStmt"},
		{"QueryIter of an UPDATE", upd, updParams, queryIter, "use Exec for *sql.UpdateStmt"},
		{"Run of a SELECT", sel, selParams, run, ""},
		{"Run of an UPDATE", upd, updParams, run, ""},
	} {
		parse := func() string { return e.TraceLast().Data().FindAll(obs.SpanParse)[0].Name }
		e.stmts.clear()
		miss := c.call(c.text, c.params)
		if span := parse(); span != "" {
			t.Errorf("%s, first: parse span %q, want a miss", c.name, span)
		}
		if c.text == sel {
			_, err := e.Query(ctx, sel, selParams...)
			if err != nil {
				t.Fatal(err)
			}
		} else if _, err := e.Exec(ctx, upd, updParams...); err != nil {
			t.Fatal(err)
		}
		hit := c.call(c.text, c.params)
		if span := parse(); span != "cached" {
			t.Errorf("%s, warmed: parse span %q, want a hit", c.name, span)
		}
		if hit != miss {
			t.Errorf("%s: a hit answers %s, a miss %s", c.name, hit, miss)
		}
		if !strings.Contains(miss, c.refuse) || c.refuse == "" && strings.Contains(miss, "core:") {
			t.Errorf("%s: %s, want %q", c.name, miss, cmp.Or(c.refuse, "an answer"))
		}
	}
}

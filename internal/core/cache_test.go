package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/types"
)

// cachedPlan is the plan the statement cache keeps for text; nil when it
// keeps none.
func (e *Engine) cachedPlan(text string) (*template, plan.Node) {
	e.stmts.mu.Lock()
	defer e.stmts.mu.Unlock()
	t := e.stmts.m[text]
	if t == nil {
		return nil, nil
	}
	return t, t.plan
}

// TestStatementCacheFollowsTheCatalog runs fk_join_top5 twice with a
// change between the calls that a plan may read — statistics, a new
// fragment, a view, a source, the optimizer's options — and finds the
// second call planned again: its answer is a fresh engine's, made with
// the change, and the plan it kept prints as that engine's EXPLAIN.
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
	for _, c := range []struct {
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
	} {
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
			for _, sp := range e.TraceLast().FindAll(k) {
				out[k.String()+"/"+sp.Name()]++
			}
		}
		out["exec"] = len(e.TraceLast().FindAll(obs.SpanExec))
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
	// A range is planned on every call: the verdict is kept, no plan.
	ranged := "SELECT oid FROM orders WHERE oid >= ? AND oid < ?"
	for _, p := range [][]types.Value{ints(1, 4), ints(10, 12)} {
		res, err := e.Query(ctx, ranged, p...)
		if err != nil || int64(len(res.Rows)) != p[1].Int()-p[0].Int() {
			t.Fatalf("%s%v: %v, %v", ranged, p, res, err)
		}
	}
	if tm, kept := e.cachedPlan(ranged); tm == nil || kept != nil {
		t.Errorf("a range: entry %v, plan %v; want an entry with no plan", tm != nil, kept != nil)
	}
	if !strings.Contains(e.TraceLast().Tree(), "parse") {
		t.Errorf("a statement planned on every call is parsed:\n%s", e.TraceLast().Tree())
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

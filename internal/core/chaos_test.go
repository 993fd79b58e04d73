package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/faults"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/resilience"
	"gis/internal/source"
	"gis/internal/types"
	"gis/internal/wire"
)

// failSource answers metadata normally but fails every Execute: the
// deterministic stand-in for a component system that is reachable but
// cannot serve data. With rows set, a sub-query delivers them before it
// fails; caps is what it advertises.
type failSource struct {
	name   string
	tables []string
	schema *types.Schema
	err    error
	rows   []types.Row
	caps   source.Capabilities
	execs  atomic.Int64
}

func (f *failSource) Name() string                             { return f.name }
func (f *failSource) Capabilities() source.Capabilities        { return f.caps }
func (f *failSource) Tables(context.Context) ([]string, error) { return f.tables, nil }
func (f *failSource) TableInfo(_ context.Context, table string) (*source.TableInfo, error) {
	return &source.TableInfo{Schema: f.schema, RowCount: -1}, nil
}
func (f *failSource) Execute(context.Context, *source.Query) (source.RowIter, error) {
	f.execs.Add(1)
	if f.rows == nil {
		return nil, f.err
	}
	return &failingIter{rows: f.rows, err: f.err}, nil
}

// failingIter delivers its rows, then fails with err.
type failingIter struct {
	rows []types.Row
	err  error
}

func (it *failingIter) Next() (types.Row, error) {
	if len(it.rows) == 0 {
		return nil, it.err
	}
	r := it.rows[0]
	it.rows = it.rows[1:]
	return r, nil
}

func (it *failingIter) Close() error { return nil }

var eventsSchema = types.NewSchema(
	types.Column{Name: "id", Type: types.KindInt},
	types.Column{Name: "val", Type: types.KindFloat},
)

// newDegradedUnion maps "events" over one healthy relstore fragment and
// one failing fragment.
func newDegradedUnion(t *testing.T, partial bool) (*Engine, *failSource) {
	t.Helper()
	e := New()
	e.SetPartialResults(partial)
	ok := relstore.New("okstore")
	if err := ok.CreateTable("events", eventsSchema, 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, ok, "events", []types.Row{
		{types.NewInt(1), types.NewFloat(1)},
		{types.NewInt(2), types.NewFloat(2)},
		{types.NewInt(3), types.NewFloat(3)},
	})
	bad := &failSource{name: "bad", tables: []string{"events"}, schema: eventsSchema, err: errors.New("source down")}
	cat := e.Catalog()
	for _, src := range []source.Source{ok, bad} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineTable("events", eventsSchema); err != nil {
		t.Fatal(err)
	}
	cols := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}
	for _, src := range []string{"okstore", "bad"} {
		if err := cat.MapFragment(ctx, "events", &catalog.Fragment{
			Source: src, RemoteTable: "events", Columns: cols,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e, bad
}

// TestPartialResultUnion pins the degradation contract without any
// randomness: a failed non-essential branch yields the healthy branch's
// rows plus a typed PartialResultError naming the lost source — for a
// union, and for a key-shipped join's right side, which is merged the
// same way. The failing fragment delivers one row before it fails: the
// row stays, and its outcome counts it.
func TestPartialResultUnion(t *testing.T) {
	for _, parallel := range []bool{true, false} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			for _, op := range []string{"union", "semijoin"} {
				t.Run(op, func(t *testing.T) {
					e, bad := newDegradedUnion(t, true)
					e.PlanOptions().ParallelFragments = parallel
					bad.rows = []types.Row{{types.NewInt(4), types.NewFloat(4)}}
					q := "SELECT id FROM events"
					if op == "semijoin" {
						// Keys are shipped only to a source that filters.
						bad.caps = source.Capabilities{Filter: source.FilterFull}
						crm, custs := relstore.New("crm"), types.NewSchema(types.Column{Name: "id", Type: types.KindInt})
						if err := crm.CreateTable("custs", custs, 0); err != nil {
							t.Fatal(err)
						}
						mustInsert(t, crm, "custs", []types.Row{{types.NewInt(1)}, {types.NewInt(2)}, {types.NewInt(3)}, {types.NewInt(4)}})
						cat := e.Catalog()
						if err := cat.AddSource(crm); err != nil {
							t.Fatal(err)
						}
						if err := cat.DefineTable("custs", custs); err != nil {
							t.Fatal(err)
						}
						if err := cat.MapSimple(ctx, "custs", "crm", "custs"); err != nil {
							t.Fatal(err)
						}
						e.PlanOptions().ForceStrategy = plan.StrategySemiJoin
						e.PlanOptions().JoinOrder = plan.OrderSyntactic
						q = "SELECT e.id FROM custs c JOIN events e ON c.id = e.id"
						if text, err := e.Explain(ctx, q); err != nil || !strings.Contains(text, "strategy=semijoin") {
							t.Fatalf("the join does not ship keys (%v):\n%s", err, text)
						}
					}
					res, err := e.Query(ctx, q)
					if err != nil {
						t.Fatalf("degradable query failed hard: %v", err)
					}
					if len(res.Rows) != 4 {
						t.Errorf("rows = %d, want 3 from the healthy fragment and 1 from the failed one", len(res.Rows))
					}
					if res.Partial == nil {
						t.Fatal("Result.Partial not set for a degraded query")
					}
					failed := res.Partial.Failed()
					if len(failed) != 1 || failed[0].Source != "bad" || failed[0].Op != op || failed[0].Rows != 1 {
						t.Errorf("Failed = %+v, want one %s failure on source bad that delivered 1 row", failed, op)
					}
					if res.Partial.AllFailed() {
						t.Error("AllFailed despite a healthy branch")
					}
				})
			}
		})
	}
}

// TestStreamedPartialResultIsCounted: a degraded answer counts in
// core.partial_queries and marks the statement's span whether it is
// materialized or streamed.
func TestStreamedPartialResultIsCounted(t *testing.T) {
	e, _ := newDegradedUnion(t, true)
	counter := obs.Default().Counter("core.partial_queries")
	for _, streamed := range []bool{false, true} {
		before := counter.Value()
		tr := obs.NewTrace("partial")
		tctx := obs.WithTrace(ctx, tr)
		if streamed {
			_, it, err := e.QueryIter(tctx, "SELECT id FROM events")
			if err != nil {
				t.Fatal(err)
			}
			rows, err := source.Drain(it)
			if err != nil || len(rows) != 3 {
				t.Fatalf("streamed: %d rows, %v", len(rows), err)
			}
		} else if res, err := e.Query(tctx, "SELECT id FROM events"); err != nil || res.Partial == nil {
			t.Fatalf("materialized: %v, result %+v", err, res)
		}
		if d := counter.Value() - before; d != 1 {
			t.Errorf("streamed %v: core.partial_queries rose by %d, want 1", streamed, d)
		}
		if spans := tr.Data().FindAll(obs.SpanQuery); len(spans) != 1 {
			t.Errorf("streamed %v: %d query spans", streamed, len(spans))
		} else if _, ok := spans[0].Attr("partial"); !ok {
			t.Errorf("streamed %v: the query span does not say the answer is partial", streamed)
		}
	}
}

// TestPartialResultDisabledFailsHard: without opt-in, one dead fragment
// fails the whole query — degradation must never be silent default.
func TestPartialResultDisabledFailsHard(t *testing.T) {
	e, _ := newDegradedUnion(t, false)
	if _, err := e.Query(ctx, "SELECT id FROM events"); err == nil {
		t.Fatal("query succeeded although degradation is disabled")
	}
}

// TestPartialResultAllFailed: when every union branch is lost there is
// no result to degrade to — the typed error becomes the query's error.
func TestPartialResultAllFailed(t *testing.T) {
	e := New()
	e.SetPartialResults(true)
	cat := e.Catalog()
	cols := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}
	if err := cat.DefineTable("events", eventsSchema); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bad1", "bad2"} {
		bad := &failSource{name: name, tables: []string{"events"}, schema: eventsSchema, err: errors.New("down")}
		if err := cat.AddSource(bad); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapFragment(ctx, "events", &catalog.Fragment{
			Source: name, RemoteTable: "events", Columns: cols,
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Query(ctx, "SELECT id FROM events")
	var pre *resilience.PartialResultError
	if !errors.As(err, &pre) {
		t.Fatalf("err = %v, want *PartialResultError when every branch failed", err)
	}
	if !pre.AllFailed() {
		t.Error("surfaced error does not report AllFailed")
	}
}

// TestChaosBreakerShedsLoad is the acceptance criterion for the
// breaker: once a source trips it, further queries are shed without
// touching the source, visible in the obs short-circuit counter.
func TestChaosBreakerShedsLoad(t *testing.T) {
	p := &resilience.Policy{MaxRetries: 0, BreakerThreshold: 2, BreakerCooldown: time.Hour}
	e := New()
	bad := &failSource{name: "bad", tables: []string{"events"}, schema: eventsSchema, err: errors.New("down")}
	guarded := resilience.WrapSource(bad, p)
	cat := e.Catalog()
	if err := cat.AddSource(guarded); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineTable("events", eventsSchema); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapFragment(ctx, "events", &catalog.Fragment{
		Source: "bad", RemoteTable: "events",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	short := obs.Default().Counter("resilience.breaker.short_circuits")
	base := short.Value()
	for i := 0; i < 8; i++ {
		if _, err := e.Query(ctx, "SELECT id FROM events"); err == nil {
			t.Fatal("query against a dead source succeeded")
		}
	}
	if n := bad.execs.Load(); n != 2 {
		t.Errorf("source saw %d Execute calls, want 2: the open breaker must shed the rest", n)
	}
	if d := short.Value() - base; d < 6 {
		t.Errorf("short-circuit counter rose by %d, want >= 6 shed calls", d)
	}
	if st := guarded.Breaker().State(); st != resilience.BreakerOpen {
		t.Errorf("the tripped source's breaker is %s, want open", st)
	}
}

// ---- seeded chaos over the wire ----

var chaosOrderSchema = types.NewSchema(
	types.Column{Name: "oid", Type: types.KindInt},
	types.Column{Name: "cust_id", Type: types.KindInt},
)

// newWireChaosEngine builds a two-site federation over real wire
// connections with client-side fault injection: customers local,
// orders partitioned across "ny" and "eu", every source guarded under
// chaosPolicy.
func newWireChaosEngine(t *testing.T, planSpec string, partial bool) *Engine {
	t.Helper()
	var fp *faults.Plan
	if planSpec != "" {
		var err error
		if fp, err = faults.ParsePlan(planSpec); err != nil {
			t.Fatal(err)
		}
	}
	e := New()
	e.SetPartialResults(partial)

	local := relstore.New("local")
	if err := local.CreateTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
	), 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, local, "customers", []types.Row{
		{types.NewInt(1), types.NewString("alice")},
		{types.NewInt(2), types.NewString("bob")},
		{types.NewInt(3), types.NewString("carol")},
		{types.NewInt(4), types.NewString("dave")},
	})

	serve := func(name string, rows []types.Row) source.Source {
		st := relstore.New(name + "store")
		if err := st.CreateTable("orders", chaosOrderSchema, 0); err != nil {
			t.Fatal(err)
		}
		mustInsert(t, st, "orders", rows)
		srv, err := wire.Serve(context.Background(), "127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithName(name), wire.WithFaultPlan(fp))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	ny := serve("ny", []types.Row{
		{types.NewInt(10), types.NewInt(1)},
		{types.NewInt(11), types.NewInt(2)},
		{types.NewInt(12), types.NewInt(1)},
	})
	eu := serve("eu", []types.Row{
		{types.NewInt(100), types.NewInt(3)},
		{types.NewInt(101), types.NewInt(4)},
		{types.NewInt(102), types.NewInt(3)},
	})

	cat := e.Catalog()
	for _, src := range []source.Source{local, ny, eu} {
		if err := cat.AddSource(resilience.WrapSource(src, chaosPolicy())); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapSimple(ctx, "customers", "local", "customers"); err != nil {
		t.Fatal(err)
	}
	if err := cat.DefineTable("orders", chaosOrderSchema); err != nil {
		t.Fatal(err)
	}
	cols := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}
	if err := cat.MapFragment(ctx, "orders", &catalog.Fragment{
		Source: "ny", RemoteTable: "orders", Columns: cols,
		Where: expr.NewBinary(expr.OpLt, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(100))),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapFragment(ctx, "orders", &catalog.Fragment{
		Source: "eu", RemoteTable: "orders", Columns: cols,
		Where: expr.NewBinary(expr.OpGe, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(100))),
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// chaosPolicy retries fast so seeded transient faults mostly heal.
func chaosPolicy() *resilience.Policy {
	return &resilience.Policy{
		CallTimeout: 2 * time.Second,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	}
}

// runChaosQueries drives q from several workers; every execution must
// succeed fully, degrade with a typed partial verdict, or fail cleanly
// before the deadline.
func runChaosQueries(t *testing.T, e *Engine, q string, fullRows int, wantOp string) (full, part, failed int64) {
	t.Helper()
	const (
		workers = 4
		iters   = 10
	)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				res, err := e.Query(qctx, q)
				cancel()
				mu.Lock()
				switch {
				case err != nil:
					failed++
				case res.Partial != nil:
					part++
					for _, o := range res.Partial.Failed() {
						if o.Op != wantOp {
							t.Errorf("degraded op = %q, want %q", o.Op, wantOp)
						}
					}
					if len(res.Rows) > fullRows {
						t.Errorf("partial result has %d rows, more than the full %d", len(res.Rows), fullRows)
					}
				default:
					full++
					if len(res.Rows) != fullRows {
						t.Errorf("full result has %d rows, want %d", len(res.Rows), fullRows)
					}
				}
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos queries hung")
	}
	return full, part, failed
}

// TestChaosParallelUnion runs the partitioned-union query under a
// seeded fault plan: the eu link drops and errors while ny stays clean.
func TestChaosParallelUnion(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress test")
	}
	e := newWireChaosEngine(t, "seed=5;eu:err=0.25,drop=0.1,ops=read", true)
	e.PlanOptions().ParallelFragments = true
	full, part, failed := runChaosQueries(t, e, "SELECT oid FROM orders", 6, "union")
	if full+part == 0 {
		t.Error("no query produced rows under injection")
	}
	t.Logf("parallel union: %d full, %d partial, %d failed cleanly", full, part, failed)
}

// TestChaosBindJoin drives the key-shipped join (the semijoin) under the same
// seeded plan: a lost fragment degrades to the surviving fragment's
// matches and what the lost one delivered before it failed.
func TestChaosBindJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress test")
	}
	e := newWireChaosEngine(t, "seed=17;eu:err=0.25,drop=0.1,ops=read", true)
	e.PlanOptions().ForceStrategy = plan.StrategySemiJoin
	q := "SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id"
	full, part, failed := runChaosQueries(t, e, q, 6, "semijoin")
	if full+part == 0 {
		t.Error("no query produced rows under injection")
	}
	t.Logf("key-shipped join: %d full, %d partial, %d failed cleanly", full, part, failed)
}

// ---- 2PC under faults ----

// newTxnChaosEngine partitions "accounts" across two wire-served
// transactional stores, with planSpec's faults on the client links.
func newTxnChaosEngine(t *testing.T, planSpec string) *Engine {
	t.Helper()
	fp, err := faults.ParsePlan(planSpec)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
	cat := e.Catalog()
	for p, name := range []string{"ny", "eu"} {
		st := relstore.New(name + "store")
		if err := st.CreateTable("acct", schema, 0); err != nil {
			t.Fatal(err)
		}
		var rows []types.Row
		for i := 0; i < 4; i++ {
			rows = append(rows, types.Row{types.NewInt(int64(p*4 + i)), types.NewFloat(100)})
		}
		mustInsert(t, st, "acct", rows)
		srv, err := wire.Serve(context.Background(), "127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithName(name), wire.WithFaultPlan(fp))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cat.AddSource(resilience.WrapSource(cl, chaosPolicy())); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineTable("accounts", schema); err != nil {
		t.Fatal(err)
	}
	cols := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}
	for p, name := range []string{"ny", "eu"} {
		lo, hi := int64(p*4), int64((p+1)*4)
		if err := cat.MapFragment(ctx, "accounts", &catalog.Fragment{
			Source: name, RemoteTable: "acct", Columns: cols,
			Where: expr.NewBinary(expr.OpAnd,
				expr.NewBinary(expr.OpGe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(lo))),
				expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(hi)))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func sumBalances(t *testing.T, e *Engine) float64 {
	t.Helper()
	res, err := e.Query(ctx, "SELECT SUM(balance) FROM accounts")
	if err != nil {
		t.Fatalf("balance audit query: %v", err)
	}
	return res.Rows[0][0].Float()
}

// TestChaos2PCPrepareFault: a prepare message that always fails must
// abort the transaction on every participant — the untouched
// participant's writes roll back too, so the global balance is intact.
func TestChaos2PCPrepareFault(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress test")
	}
	e := newTxnChaosEngine(t, "eu:err=1,ops=prepare")
	if _, err := e.Exec(ctx, "UPDATE accounts SET balance = balance + 1"); err == nil {
		t.Fatal("global update committed although a participant cannot prepare")
	} else if !strings.Contains(err.Error(), "voted abort") {
		t.Errorf("err = %v, want a voted-abort verdict", err)
	}
	if sum := sumBalances(t, e); sum != 800 {
		t.Errorf("balance sum = %v after aborted update, want 800 (atomicity violated)", sum)
	}
}

// TestChaos2PCCommitFault: once the commit decision is logged, a
// participant whose commit acknowledgement keeps failing exhausts the
// coordinator's retries and is surfaced as in-doubt — the engine must never
// report a clean commit.
func TestChaos2PCCommitFault(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress test")
	}
	e := newTxnChaosEngine(t, "eu:err=1,ops=commit")
	_, err := e.Exec(ctx, "UPDATE accounts SET balance = balance + 1")
	if err == nil {
		t.Fatal("engine reported a clean commit despite a lost participant acknowledgement")
	}
	if !strings.Contains(err.Error(), "did not acknowledge") || !strings.Contains(err.Error(), "eu") {
		t.Errorf("err = %v, want an in-doubt verdict naming participant eu", err)
	}
}

var _ = fmt.Sprintf // keep fmt available for debugging edits

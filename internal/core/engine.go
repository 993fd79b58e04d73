// Package core implements the mediator itself — the paper's Global
// Information System. An Engine owns the global catalog, plans global
// SQL against it (parse → subquery materialization → logical plan →
// optimize → decompose), executes the distributed plan, and coordinates
// global updates with two-phase commit.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/exec"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/resilience"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/stats"
	"gis/internal/txn"
	"gis/internal/types"
)

// Engine is a Global Information System instance.
type Engine struct {
	cat   *catalog.Catalog
	opts  *plan.Options
	coord *txn.Coordinator

	// tracing, when set, attaches a fresh obs.Trace to every statement
	// that does not already carry one; the completed trace is kept in
	// lastTrace (gisql \trace). Callers may instead supply their own
	// trace via obs.WithTrace on the context.
	tracing   atomic.Bool
	lastTrace atomic.Pointer[obs.Trace]
	// qlog tracks in-flight statements and retains slow ones with their
	// traces (served by the debug endpoint).
	qlog *obs.QueryLog
	// partial, when set, lets SELECTs survive non-essential source
	// failures: a failed union branch or key-shipped-join fragment is
	// recorded instead of failing the query, and the Result carries a
	// typed PartialResultError describing what is missing.
	partial atomic.Bool
	// admit, when set, gates every top-level statement through admission
	// control: over-limit statements are shed with a typed ErrOverload
	// before any planning work is done. Statements whose context already
	// carries an admitted session (sub-statements, or queries the wire
	// server admitted) pass through untouched.
	admit atomic.Pointer[admission.Controller]
	// stmts keeps the plans and writes of texts run again (cache.go).
	stmts stmtCache
}

// mPartialQueries counts top-level SELECTs that completed degraded.
var mPartialQueries = obs.Default().Counter("core.partial_queries")

// New creates an empty engine with every optimization enabled; register
// sources and define the global schema through Catalog(), and change the
// optimizer's settings through PlanOptions().
func New() *Engine {
	return &Engine{
		cat:   catalog.New(),
		opts:  plan.DefaultOptions(),
		coord: txn.NewCoordinator(),
		qlog:  obs.NewQueryLog(250*time.Millisecond, 64),
	}
}

// SetPartialResults toggles graceful degradation for SELECTs. Off by
// default: every source failure fails the query. On, a failed fan-out
// branch yields a Result with Partial set (unless every branch failed,
// which is still a hard error). Writes are never degraded.
func (e *Engine) SetPartialResults(on bool) { e.partial.Store(on) }

// SetAdmission installs (or, with nil, removes) the admission
// controller gating top-level statements. The controller's Degraded
// hook is typically built from the breakers of the guarded sources
// (resilience.Guarded.Breaker).
func (e *Engine) SetAdmission(ctrl *admission.Controller) { e.admit.Store(ctrl) }

// SetTracing toggles per-statement tracing. Off by default: with it off
// the only per-query cost is the query-log bookkeeping.
func (e *Engine) SetTracing(on bool) { e.tracing.Store(on) }

// TraceLast returns the trace of the most recently completed top-level
// statement (nil when tracing was never on).
func (e *Engine) TraceLast() *obs.Trace { return e.lastTrace.Load() }

// Queries exposes the engine's query log: in-flight statements and the
// retained slow ones.
func (e *Engine) Queries() *obs.QueryLog { return e.qlog }

// instrument gates one top-level statement through admission control
// (when enabled), begins query-log tracking, and — when tracing is on
// and the context does not already carry a trace — attaches a fresh one
// rooted at a query span. A shed statement returns the typed overload
// error immediately, before any planning work. On success the returned
// context must be used for the statement; finish must be called exactly
// once with the statement's outcome and returns it. A statement whose
// context already carries a session or a trace (the caller's own) keeps
// them: it is not admitted twice, its spans attach under the caller's
// root, and lastTrace is not published.
func (e *Engine) instrument(ctx context.Context, text string, measure bool) (context.Context, func(error) error, error) {
	id := e.qlog.Begin(text)
	var sess *admission.Session
	if ctrl := e.admit.Load(); ctrl != nil && admission.SessionFrom(ctx) == nil {
		actx, s, err := ctrl.Admit(ctx, admission.TenantFrom(ctx))
		if err != nil {
			e.qlog.Finish(id, err, nil)
			return ctx, nil, err
		}
		ctx, sess = actx, s
	}
	tr := obs.TraceFrom(ctx)
	owned := false
	if tr == nil && (measure || e.tracing.Load() || e.qlog.IsSampled(id)) {
		// EXPLAIN ANALYZE and a structured-log sample force a trace even
		// when interactive tracing is off, so the plan annotation and the
		// emitted record have the operators' measured records to render;
		// only the interactive toggle publishes the trace to \trace.
		tr = obs.NewTrace(text)
		ctx = obs.WithTrace(ctx, tr)
		owned = e.tracing.Load()
	}
	var root *obs.Span
	if tr != nil {
		ctx, root = obs.StartSpan(ctx, obs.SpanQuery, text)
	}
	return ctx, func(err error) error {
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		root.End()
		if owned {
			e.lastTrace.Store(tr)
		}
		e.qlog.Finish(id, err, tr)
		sess.Release()
		return err
	}, nil
}

// Catalog exposes the global catalog for registration and mapping.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Coordinator exposes the transaction coordinator (decision log access).
func (e *Engine) Coordinator() *txn.Coordinator { return e.coord }

// PlanOptions returns the engine's optimizer options (mutable; used by
// the harness to toggle rules between runs).
func (e *Engine) PlanOptions() *plan.Options { return e.opts }

// Result is a materialized query result. Partial, set only when the
// engine runs with partial results enabled, describes source branches
// that failed, with the rows each delivered before it did; it is nil for
// a complete result.
type Result struct {
	Schema  *types.Schema
	Rows    []types.Row
	Partial *resilience.PartialResultError
}

// String renders the result as an aligned text table: the column names,
// a rule, and a line a row.
func (r *Result) String() string {
	lines := make([][]string, 2, 2+len(r.Rows))
	widths := make([]int, r.Schema.Len())
	for _, c := range r.Schema.Columns {
		lines[0] = append(lines[0], c.Name)
	}
	for _, row := range r.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = v.String()
		}
		lines = append(lines, line)
	}
	for _, line := range lines {
		for i, s := range line {
			widths[i] = max(widths[i], len(s))
		}
	}
	for _, w := range widths {
		lines[1] = append(lines[1], strings.Repeat("-", w))
	}
	var b strings.Builder
	for n, line := range lines {
		sep := " | "
		if n == 1 {
			sep = "-+-"
		}
		for i, s := range line {
			if i > 0 {
				b.WriteString(sep)
			}
			writePadded(&b, s, widths[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writePadded left-aligns s in a field of the given width.
func writePadded(b *strings.Builder, s string, width int) {
	b.WriteString(s)
	for n := width - len(s); n > 0; n-- {
		b.WriteByte(' ')
	}
}

// Query parses, plans, and executes a SELECT, materializing the result.
func (e *Engine) Query(ctx context.Context, text string, params ...types.Value) (res *Result, err error) {
	ctx, st, finish, err := e.begin(ctx, text, false, params, true)
	if err != nil {
		return nil, err
	}
	defer func() { err = finish(err) }()
	defer e.handBack(st.in)
	return e.collect(ctx, st)
}

// handBack returns in, a plan of the statement cache a statement held,
// once the statement is over and nothing reads the plan (stmtCache.checkin).
func (e *Engine) handBack(in *instance) { e.stmts.checkin(in, e.cat.Generation()) }

// queried returns the SELECT that Query and QueryIter run: stmt itself.
func queried(stmt sql.Statement) (*sql.SelectStmt, error) {
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, errNotSelect(stmt)
	}
	return sel, nil
}

// errNotSelect refuses a statement Query does not run.
func errNotSelect(stmt sql.Statement) error {
	return fmt.Errorf("core: Query requires a SELECT; use Exec for %T", stmt)
}

// statement is what begin hands an entry point: the statement as parsed,
// and in, an instance of the statement cache that the statement holds
// until it is over (Engine.handBack). On a hit there is no statement, and
// in has the call's parameters bound into its plan or its write;
// otherwise in, when set, is the instance that planning the SELECT or
// building the write fills and the cache keeps.
type statement struct {
	stmt sql.Statement
	in   *instance
	text string
}

// writes reports whether the statement is an INSERT, UPDATE or DELETE.
func (st *statement) writes() bool {
	switch st.stmt.(type) {
	case nil:
		return st.in.plan == nil
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return true
	case *sql.SelectStmt, *sql.ExplainStmt:
	}
	return false
}

// begin is how every entry point opens: instrument — so nothing is
// planned, and no subquery run for the plan, outside admission, the
// query log and the trace — then parse under a parse span. With cache,
// a text the statement cache keeps instances of, under the catalog's
// generation and the engine's options, whose parameters fit them, is not
// parsed when an idle instance reads the fragments the values leave: the
// values are bound into it under a parse span named "cached". With none
// idle, the text is parsed and planned afresh under one named
// "replanned", and the instance is kept beside the others. An EXPLAIN is
// given no instance. A statement that is shed or does not parse is
// already finished when begin returns its error; otherwise the caller
// defers finish, as instrument asks, or hands it to what completes the
// statement later (QueryIter's finishIter), and hands back the instance
// it holds.
func (e *Engine) begin(ctx context.Context, text string, measure bool, params []types.Value, cache bool) (context.Context, statement, func(error) error, error) {
	ctx, finish, err := e.instrument(ctx, text, measure)
	if err != nil {
		return ctx, statement{}, nil, err
	}
	st := statement{text: text}
	var t *template
	gen, fill, name := uint64(0), cache, ""
	if cache {
		gen = e.cat.Generation()
		var in *instance
		switch t, in, fill = e.stmts.checkout(text, gen, e.opts, params); {
		case in != nil:
			_, span := obs.StartSpan(ctx, obs.SpanParse, "cached")
			in.params.Bind(params)
			span.End()
			st.in = in
			return ctx, st, finish, nil
		case t == nil:
			fill = true
		case fill:
			name = "replanned"
		}
	}
	// The slots are read onto the stack and copied into an instance only
	// when the statement is one the cache keeps.
	var buf [8]*expr.Const
	var slots []*expr.Const
	_, span := obs.StartSpan(ctx, obs.SpanParse, name)
	if fill {
		st.stmt, slots, err = sql.ParseSlots(text, buf[:0], params...)
	} else {
		st.stmt, err = sql.Parse(text, params...)
	}
	span.End()
	if err != nil {
		return ctx, statement{}, nil, finish(err)
	}
	if _, explain := st.stmt.(*sql.ExplainStmt); fill && !explain {
		if t == nil {
			t = &template{gen: gen, opts: *e.opts}
			st.in = &t.first
		} else {
			st.in = &instance{}
		}
		st.in.t = t
		if len(slots) <= len(st.in.slots) {
			st.in.params.Slots = st.in.slots[:copy(st.in.slots[:], slots)]
		} else {
			st.in.params.Slots = slices.Clone(slots)
		}
	}
	return ctx, st, finish, nil
}

// QueryIter plans and executes a SELECT, streaming rows. The returned
// schema describes the stream.
func (e *Engine) QueryIter(ctx context.Context, text string, params ...types.Value) (*types.Schema, source.RowIter, error) {
	ctx, st, finish, err := e.begin(ctx, text, false, params, true)
	if err != nil {
		return nil, nil, err
	}
	ctx, outc := e.degradable(ctx)
	var it source.RowIter
	p, shared, err := e.selectPlan(ctx, st)
	if err == nil {
		it, err = exec.Run(ctx, p)
	}
	if err != nil {
		e.handBack(st.in)
		return nil, nil, finish(err)
	}
	// The statement is live until the stream is closed.
	return schemaOf(p, shared), &finishIter{ctx: ctx, in: it, fn: finish, outc: outc, e: e, held: st.in}, nil
}

// schemaOf is p's schema as a statement hands it to its caller: a copy
// when p is the statement cache's, so that the caller may write it.
func schemaOf(p plan.Node, shared bool) *types.Schema {
	if shared {
		return p.Schema().Clone()
	}
	return p.Schema()
}

// finishIter completes a streamed statement's instrumentation when the
// consumer closes the stream, judges a streamed partial result, and
// hands back held, the statement cache's plan the stream ran.
type finishIter struct {
	ctx     context.Context
	in      source.RowIter
	fn      func(error) error
	outc    *resilience.Outcomes
	verdict error
	done    bool
	e       *Engine
	held    *instance
}

func (f *finishIter) Next() (types.Row, error) {
	r, err := f.in.Next()
	if err == io.EOF {
		if verr := f.judge(); verr != nil {
			return nil, verr
		}
	}
	return r, err
}

// judge judges the statement's outcomes the first time it is called: at
// the end of the stream, or when the stream is closed before it.
func (f *finishIter) judge() error {
	if f.outc != nil {
		_, f.verdict = judgePartial(f.ctx, f.outc)
		f.outc = nil
	}
	return f.verdict
}

func (f *finishIter) Close() error {
	err := f.in.Close()
	if !f.done {
		f.done = true
		f.e.handBack(f.held)
		err = f.fn(cmp.Or(err, f.judge()))
	}
	return err
}

// degradable arms the partial-result collector for a top-level SELECT
// when the engine allows degradation. A nested statement (a subquery)
// finds the outer one's collector in its context and records into it, so
// a degraded subquery surfaces on the outer statement's result; it gets
// a nil collector, and so judges nothing.
func (e *Engine) degradable(ctx context.Context) (context.Context, *resilience.Outcomes) {
	if !e.partial.Load() || resilience.OutcomesFrom(ctx) != nil {
		return ctx, nil
	}
	return resilience.WithOutcomes(ctx)
}

// judgePartial is the one verdict on a statement's recorded outcomes,
// materialized or streamed. When some source branch failed and another
// answered, the answer is degraded: it returns the typed error to carry
// beside the rows, marks the statement's span and counts it. When every
// branch failed nothing answered, and the typed error is the statement's
// error. A complete answer, or a nil collector, has neither.
func judgePartial(ctx context.Context, outc *resilience.Outcomes) (partial *resilience.PartialResultError, err error) {
	pre := outc.Partial()
	if pre == nil {
		return nil, nil
	}
	if pre.AllFailed() {
		return nil, pre
	}
	mPartialQueries.Inc()
	obs.CurrentSpan(ctx).SetAttr("partial", pre.Error())
	return pre, nil
}

// collect runs a SELECT statement, materializing its result.
func (e *Engine) collect(ctx context.Context, st statement) (*Result, error) {
	ctx, outc := e.degradable(ctx)
	p, shared, err := e.selectPlan(ctx, st)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Collect(ctx, p)
	if err != nil {
		return nil, err
	}
	partial, err := judgePartial(ctx, outc)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schemaOf(p, shared), Rows: rows, Partial: partial}, nil
}

// selectPlan is the plan a SELECT statement runs: the one its cache hit
// bound, or its statement planned. shared reports that the plan is the
// statement cache's, which a later call runs again.
func (e *Engine) selectPlan(ctx context.Context, st statement) (p plan.Node, shared bool, err error) {
	if st.stmt == nil {
		if st.in.plan == nil {
			return nil, false, errNotSelect(st.in.write.op.parsed())
		}
		return st.in.plan, true, nil
	}
	sel, err := queried(st.stmt)
	if err != nil {
		return nil, false, err
	}
	return e.planSelect(ctx, sel, st.in, st.text)
}

// planSelect materializes subqueries and produces an optimized plan.
// With fill, it plans under the options of fill's template and fills
// fill with the plan, and shared set, when another call's values may be
// bound into it (plan.ValueFree; a statement holding a subquery has its
// rows for constants). A template the cache does not hold yet, whose
// first plan fill is, is kept under text: without a plan, it is the
// verdict that the text is planned on every call.
func (e *Engine) planSelect(ctx context.Context, sel *sql.SelectStmt, fill *instance, text string) (p plan.Node, shared bool, err error) {
	reusable := fill != nil && !holdsSubquery(sel)
	rctx, rspan := obs.StartSpan(ctx, obs.SpanResolve, "")
	err = e.materializeSubqueries(rctx, sel)
	var logical plan.Node
	if err == nil {
		logical, err = plan.NewBuilder(e.cat).BuildSelect(sel)
	}
	rspan.End()
	if err != nil {
		return nil, false, err
	}
	opts := e.opts
	if fill != nil {
		reusable = reusable && plan.ValueFree(logical, &fill.params)
		opts = &fill.t.opts
	}
	octx, ospan := obs.StartSpan(ctx, obs.SpanOptimize, "")
	p, err = plan.Optimize(octx, logical, e.cat, opts)
	ospan.End()
	if err != nil || fill == nil {
		return p, false, err
	}
	if reusable {
		fill.params.Kept(p)
		fill.plan = p
	}
	if fill == &fill.t.first {
		e.stmts.put(text, fill.t)
	}
	return p, reusable, nil
}

// Explain returns the optimized plan of a statement as indented text.
func (e *Engine) Explain(ctx context.Context, text string, params ...types.Value) (string, error) {
	return e.explain(ctx, text, false, params)
}

// ExplainAnalyze plans AND executes a SELECT, returning the plan
// annotated with each operator's measured row count and inclusive time,
// followed by the total.
func (e *Engine) ExplainAnalyze(ctx context.Context, text string, params ...types.Value) (string, error) {
	return e.explain(ctx, text, true, params)
}

// explain is Explain, or with analyze ExplainAnalyze.
func (e *Engine) explain(ctx context.Context, text string, analyze bool, params []types.Value) (out string, err error) {
	ctx, st, finish, err := e.begin(ctx, text, analyze, params, false)
	if err != nil {
		return "", err
	}
	defer func() { err = finish(err) }()
	sel, err := explained(st.stmt)
	if err != nil {
		return "", err
	}
	return e.explainSelect(ctx, sel, analyze)
}

// explained returns the SELECT an EXPLAIN [ANALYZE] is about: stmt
// itself, or what its EXPLAIN wraps.
func explained(stmt sql.Statement) (*sql.SelectStmt, error) {
	if ex, ok := stmt.(*sql.ExplainStmt); ok {
		stmt = ex.Stmt
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT statements")
	}
	return sel, nil
}

// explainSelect plans sel and prints the plan. With analyze it runs the
// plan too, and annotates it from the operators' records, which are kept
// on ctx's trace. ExplainAnalyze has instrument attach one; Run learns
// that a statement is an EXPLAIN ANALYZE only by parsing it, after
// instrument, and may arrive without: the records then go on a trace of
// this call's own.
func (e *Engine) explainSelect(ctx context.Context, sel *sql.SelectStmt, analyze bool) (string, error) {
	if analyze && !obs.Enabled(ctx) {
		ctx = obs.WithTrace(ctx, obs.NewTrace(""))
	}
	p, _, err := e.planSelect(ctx, sel, nil, "")
	if err != nil {
		return "", err
	}
	if !analyze {
		return plan.Explain(p), nil
	}
	start := time.Now()
	rows, err := exec.Collect(ctx, p)
	if err != nil {
		return "", err
	}
	out := plan.ExplainFunc(p, exec.Annotate(obs.TraceFrom(ctx)))
	out += fmt.Sprintf("total: %d row(s) in %s\n", len(rows), time.Since(start).Round(time.Microsecond))
	return out, nil
}

// Run executes any statement: SELECT returns a Result; INSERT, UPDATE
// and DELETE return the affected-row count in a single-column Result.
func (e *Engine) Run(ctx context.Context, text string, params ...types.Value) (res *Result, err error) {
	ctx, st, finish, err := e.begin(ctx, text, false, params, true)
	if err != nil {
		return nil, err
	}
	defer func() { err = finish(err) }()
	defer e.handBack(st.in)
	if st.writes() {
		n, err := e.execStmt(ctx, st)
		if err != nil {
			return nil, err
		}
		return affected(n), nil
	}
	ex, ok := st.stmt.(*sql.ExplainStmt)
	if !ok { // a SELECT, or a statement cache hit of one
		return e.collect(ctx, st)
	}
	// The statement as it was parsed, parameters bound: printing it and
	// parsing the text again would lose both.
	sel, err := explained(ex)
	if err != nil {
		return nil, err
	}
	out, err := e.explainSelect(ctx, sel, ex.Analyze)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		rows = append(rows, types.Row{types.NewString(line)})
	}
	return &Result{
		Schema: types.NewSchema(types.Column{Name: "plan", Type: types.KindString}),
		Rows:   rows,
	}, nil
}

// affected is the Result Run returns for a write that affected n rows,
// made in one allocation.
func affected(n int64) *Result {
	r := &struct {
		res    Result
		schema types.Schema
		cols   [1]types.Column
		rows   [1]types.Row
		row    [1]types.Value
	}{cols: [1]types.Column{{Name: "affected", Type: types.KindInt}}, row: [1]types.Value{types.NewInt(n)}}
	r.schema.Columns, r.rows[0] = r.cols[:], r.row[:]
	r.res = Result{Schema: &r.schema, Rows: r.rows[:]}
	return &r.res
}

// Exec executes a write statement (INSERT/UPDATE/DELETE) and returns the
// number of affected rows. Writes spanning several sources run under
// two-phase commit.
func (e *Engine) Exec(ctx context.Context, text string, params ...types.Value) (n int64, err error) {
	ctx, st, finish, err := e.begin(ctx, text, false, params, true)
	if err != nil {
		return 0, err
	}
	defer func() { err = finish(err) }()
	defer e.handBack(st.in)
	return e.execStmt(ctx, st)
}

// Analyze collects optimizer statistics for every fragment of every
// global table: from the source's stats provider when available, else by
// scanning the remote table (source.CollectStats). Statistics are in
// remote-column space, so the fragments of one remote table share one
// collection, made once. Each component system has one worker, which
// collects its tables one after another, and the workers run at once:
// no source is asked for two tables at a time. The statistics are
// installed when every worker is done; a table that failed leaves its
// fragments as they were, and the error names each such table in
// catalog order. Installing them counts as a change of the catalog
// (Catalog.Bump).
func (e *Engine) Analyze(ctx context.Context) error {
	type remoteTable struct {
		src, table string
		width      int
		frags      []*catalog.Fragment
		ts         *stats.TableStats
		err        error
	}
	var all []*remoteTable
	bySource := make(map[string][]*remoteTable)
	seen := make(map[[2]string]*remoteTable)
	names := e.cat.Tables()
	slices.Sort(names)
	for _, name := range names {
		tab, err := e.cat.Table(name)
		if err != nil {
			return err
		}
		for _, frag := range tab.Fragments {
			key := [2]string{frag.Source, frag.RemoteTable}
			rt := seen[key]
			if rt == nil {
				rt = &remoteTable{src: frag.Source, table: frag.RemoteTable, width: frag.Info().Schema.Len()}
				seen[key] = rt
				all = append(all, rt)
				bySource[rt.src] = append(bySource[rt.src], rt)
			}
			rt.frags = append(rt.frags, frag)
		}
	}
	var wg sync.WaitGroup
	for name, tables := range bySource {
		src, err := e.cat.Source(name)
		if err != nil {
			for _, rt := range tables {
				rt.err = err
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rt := range tables {
				if rt.err = ctx.Err(); rt.err == nil {
					rt.ts, rt.err = source.CollectStats(ctx, src, rt.table, rt.width)
				}
			}
		}()
	}
	wg.Wait()
	var errs []error
	for _, rt := range all {
		if rt.err != nil {
			errs = append(errs, fmt.Errorf("core: analyze %s.%s: %w", rt.src, rt.table, rt.err))
			continue
		}
		for _, frag := range rt.frags {
			frag.SetStats(rt.ts)
		}
	}
	// Estimates read the statistics: a plan kept from before is stale.
	e.cat.Bump()
	return errors.Join(errs...)
}

// materializeSubqueries runs every uncorrelated subquery in a SELECT's or
// a write's clauses (the slots of sql.VisitExprs) and substitutes its
// result: EXISTS → boolean constant, scalar → value constant, IN →
// literal list. A correlated one fails: its inner query does not bind
// against the global schema alone. A SELECT whose LIMIT is 0 returns no
// row whatever its subqueries answer, so none is run: each reads as one
// that returned no row.
func (e *Engine) materializeSubqueries(ctx context.Context, stmt sql.Statement) error {
	sel, ok := stmt.(*sql.SelectStmt)
	run := !ok || sel.Limit != 0
	return sql.VisitExprs(stmt, func(slot *expr.Expr) (err error) {
		if expr.HasSubquery(*slot) {
			*slot, err = e.substituteSubqueries(ctx, *slot, run)
		}
		return err
	})
}

// substituteSubqueries replaces each subquery in ex by its result, or
// without run by the result of one that returned no row.
func (e *Engine) substituteSubqueries(ctx context.Context, ex expr.Expr, run bool) (expr.Expr, error) {
	var firstErr error
	out := expr.Transform(ex, func(n expr.Expr) expr.Expr {
		sub, ok := n.(*expr.Subquery)
		if !ok || firstErr != nil {
			return n
		}
		inner, ok := sub.Stmt.(*sql.SelectStmt)
		if !ok {
			firstErr = fmt.Errorf("core: malformed subquery node")
			return n
		}
		var rows []types.Row
		if run {
			res, err := e.collect(ctx, statement{stmt: inner})
			if err != nil {
				firstErr = fmt.Errorf("core: subquery: %w", err)
				return n
			}
			rows = res.Rows
		}
		switch sub.Mode {
		case expr.SubExists:
			return expr.NewConst(types.NewBool((len(rows) > 0) != sub.Negate))
		case expr.SubScalar:
			if len(rows) > 1 {
				firstErr = fmt.Errorf("core: scalar subquery returned %d rows", len(rows))
				return n
			}
			if len(rows) == 0 {
				return expr.NewConst(types.Null)
			}
			if len(rows[0]) != 1 {
				firstErr = fmt.Errorf("core: scalar subquery returned %d columns", len(rows[0]))
				return n
			}
			return expr.NewConst(rows[0][0])
		case expr.SubIn:
			// One literal per distinct value, not per row: the list is
			// planned, shipped and probed. NULL is a value here and is
			// kept, once — it decides NOT IN.
			var list []expr.Expr
			var seen types.ValueSet
			for _, r := range rows {
				if len(r) != 1 {
					firstErr = fmt.Errorf("core: IN subquery must return one column, got %d", len(r))
					return n
				}
				if seen.Add(r[0]) {
					list = append(list, expr.NewConst(r[0]))
				}
			}
			if len(list) == 0 {
				// x IN (empty) is FALSE; NOT IN (empty) is TRUE.
				return expr.NewConst(types.NewBool(sub.Negate))
			}
			return &expr.InList{E: sub.Operand, List: list, Negate: sub.Negate}
		default:
			firstErr = fmt.Errorf("core: unknown subquery mode %d", sub.Mode)
			return n
		}
	})
	return out, firstErr
}

// ApplyConfig loads a JSON federation description (catalog.Config) into
// the engine: it dials every listed source over the wire protocol and
// defines the global tables. ctx bounds the remote metadata fetches
// performed while mapping fragments. Used by tools; library callers
// usually register sources directly.
func (e *Engine) ApplyConfig(ctx context.Context, data []byte, dial func(context.Context, catalog.SourceConfig) (source.Source, error)) error {
	cfg, err := catalog.ParseConfig(data)
	if err != nil {
		return err
	}
	for _, sc := range cfg.Sources {
		if err := ctx.Err(); err != nil {
			return err
		}
		if dial == nil {
			return fmt.Errorf("core: config lists sources but no dialer was supplied")
		}
		src, err := dial(ctx, sc)
		if err != nil {
			return fmt.Errorf("core: dialing source %s (%s): %w", sc.Name, sc.Addr, err)
		}
		if err := e.cat.AddSource(src); err != nil {
			return err
		}
	}
	return e.cat.Apply(ctx, cfg, sql.ParseExpr)
}

// CreateView registers a named view after validating that its body
// parses and plans against the current catalog. Views expand wherever
// their name appears in FROM; expression subqueries inside view bodies
// are not supported, and a body that holds one is refused.
func (e *Engine) CreateView(name, selectSQL string) error {
	sel, err := sql.ParseSelect(selectSQL)
	if err != nil {
		return fmt.Errorf("core: view %s: %w", name, err)
	}
	if err := sql.VisitExprs(sel, func(slot *expr.Expr) error {
		if expr.HasSubquery(*slot) {
			return fmt.Errorf("core: view %s: a view body may not hold an IN, EXISTS or scalar subquery", name)
		}
		return nil
	}); err != nil {
		return err
	}
	// Validate by planning the body before defining the name (this also
	// rejects self-reference: the name does not resolve yet).
	if _, err := plan.NewBuilder(e.cat).BuildSelect(sel); err != nil {
		return fmt.Errorf("core: view %s does not plan: %w", name, err)
	}
	return e.cat.DefineView(name, selectSQL)
}

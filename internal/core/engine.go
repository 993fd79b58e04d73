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
// hook is typically wired to the catalog health tracker's Degraded.
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
// once with the statement's outcome and returns that outcome with a
// session abort mapped back to its typed ErrOverload. A statement whose
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
	sctx := ctx
	return ctx, func(err error) error {
		err = admission.ResolveErr(sctx, err)
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		if n, ok := root.RowsOut(); ok {
			root.SetInt("rows_out", n)
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
	Columns []string
	Schema  *types.Schema
	Rows    []types.Row
	Partial *resilience.PartialResultError
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		writePadded(&b, c, widths[i])
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
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
	ctx, stmt, finish, err := e.begin(ctx, text, false, params)
	if err != nil {
		return nil, err
	}
	defer func() { err = finish(err) }()
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: Query requires a SELECT; use Exec for %T", stmt)
	}
	return e.runSelect(ctx, sel)
}

// begin is how every entry point that returns with its statement done
// opens: instrument — so nothing is planned, and no subquery run for the
// plan, outside admission, the query log and the trace — then parse under
// a parse span. A statement that is shed or does not parse is already
// finished when begin returns its error; otherwise the caller defers
// finish, as instrument asks.
func (e *Engine) begin(ctx context.Context, text string, measure bool, params []types.Value) (context.Context, sql.Statement, func(error) error, error) {
	ctx, finish, err := e.instrument(ctx, text, measure)
	if err != nil {
		return ctx, nil, nil, err
	}
	_, span := obs.StartSpan(ctx, obs.SpanParse, "")
	stmt, err := sql.Parse(text, params...)
	span.End()
	if err != nil {
		return ctx, nil, nil, finish(err)
	}
	return ctx, stmt, finish, nil
}

// QueryIter plans and executes a SELECT, streaming rows. The returned
// schema describes the stream.
func (e *Engine) QueryIter(ctx context.Context, text string, params ...types.Value) (*types.Schema, source.RowIter, error) {
	ctx, finish, err := e.instrument(ctx, text, false)
	if err != nil {
		return nil, nil, err
	}
	ctx, outc := e.degradable(ctx)
	_, pspan := obs.StartSpan(ctx, obs.SpanParse, "")
	sel, err := sql.ParseSelect(text, params...)
	pspan.End()
	if err != nil {
		return nil, nil, finish(err)
	}
	p, err := e.planSelect(ctx, sel)
	if err != nil {
		return nil, nil, finish(err)
	}
	it, err := exec.Run(ctx, p)
	if err != nil {
		return nil, nil, finish(err)
	}
	// The statement is live until the stream is closed.
	return p.Schema(), &finishIter{ctx: ctx, in: it, fn: finish, outc: outc}, nil
}

// finishIter completes a streamed statement's instrumentation when the
// consumer closes the stream, and judges a streamed partial result.
type finishIter struct {
	ctx     context.Context
	in      source.RowIter
	fn      func(error) error
	outc    *resilience.Outcomes
	verdict error
	done    bool
}

func (f *finishIter) Next() (types.Row, error) {
	r, err := f.in.Next()
	if err == io.EOF {
		if verr := f.judge(); verr != nil {
			return nil, verr
		}
	} else if err != nil {
		// A memory-quota abort cancels the stream's context; surface the
		// typed overload error instead of the bare cancellation.
		err = admission.ResolveErr(f.ctx, err)
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

func (e *Engine) runSelect(ctx context.Context, sel *sql.SelectStmt) (*Result, error) {
	ctx, outc := e.degradable(ctx)
	p, err := e.planSelect(ctx, sel)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Collect(ctx, p)
	if err != nil {
		return nil, err
	}
	schema := p.Schema()
	cols := make([]string, schema.Len())
	for i, c := range schema.Columns {
		cols[i] = c.Name
	}
	partial, err := judgePartial(ctx, outc)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Schema: schema, Rows: rows, Partial: partial}, nil
}

// planSelect materializes subqueries and produces an optimized plan.
func (e *Engine) planSelect(ctx context.Context, sel *sql.SelectStmt) (plan.Node, error) {
	rctx, rspan := obs.StartSpan(ctx, obs.SpanResolve, "")
	err := e.materializeSubqueries(rctx, sel)
	var logical plan.Node
	if err == nil {
		logical, err = plan.NewBuilder(e.cat).BuildSelect(sel)
	}
	rspan.End()
	if err != nil {
		return nil, err
	}
	octx, ospan := obs.StartSpan(ctx, obs.SpanOptimize, "")
	n, err := plan.Optimize(octx, logical, e.cat, e.opts)
	ospan.End()
	return n, err
}

// Explain returns the optimized plan of a statement as indented text.
func (e *Engine) Explain(ctx context.Context, text string, params ...types.Value) (out string, err error) {
	ctx, stmt, finish, err := e.begin(ctx, text, false, params)
	if err != nil {
		return "", err
	}
	defer func() { err = finish(err) }()
	sel, err := explained(stmt)
	if err != nil {
		return "", err
	}
	return e.explainSelect(ctx, sel)
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

func (e *Engine) explainSelect(ctx context.Context, sel *sql.SelectStmt) (string, error) {
	p, err := e.planSelect(ctx, sel)
	if err != nil {
		return "", err
	}
	return plan.Explain(p), nil
}

// Run executes any statement: SELECT returns a Result; INSERT, UPDATE
// and DELETE return the affected-row count in a single-column Result.
func (e *Engine) Run(ctx context.Context, text string, params ...types.Value) (res *Result, err error) {
	ctx, stmt, finish, err := e.begin(ctx, text, false, params)
	if err != nil {
		return nil, err
	}
	defer func() { err = finish(err) }()
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return e.runSelect(ctx, s)
	case *sql.ExplainStmt:
		// The statement as it was parsed, parameters bound: printing it
		// and parsing the text again would lose both.
		sel, err := explained(s)
		if err != nil {
			return nil, err
		}
		explain := e.explainSelect
		if s.Analyze {
			explain = e.analyzeSelect
		}
		out, err := explain(ctx, sel)
		if err != nil {
			return nil, err
		}
		var rows []types.Row
		for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
			rows = append(rows, types.Row{types.NewString(line)})
		}
		return &Result{
			Columns: []string{"plan"},
			Schema:  types.NewSchema(types.Column{Name: "plan", Type: types.KindString}),
			Rows:    rows,
		}, nil
	default:
		n, err := e.execStmt(ctx, stmt)
		if err != nil {
			return nil, err
		}
		return &Result{
			Columns: []string{"affected"},
			Schema:  types.NewSchema(types.Column{Name: "affected", Type: types.KindInt}),
			Rows:    []types.Row{{types.NewInt(n)}},
		}, nil
	}
}

// Exec executes a write statement (INSERT/UPDATE/DELETE) and returns the
// number of affected rows. Writes spanning several sources run under
// two-phase commit.
func (e *Engine) Exec(ctx context.Context, text string, params ...types.Value) (n int64, err error) {
	ctx, stmt, finish, err := e.begin(ctx, text, false, params)
	if err != nil {
		return 0, err
	}
	defer func() { err = finish(err) }()
	return e.execStmt(ctx, stmt)
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
// catalog order.
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
	return errors.Join(errs...)
}

// materializeSubqueries executes every uncorrelated subquery in the
// statement and substitutes its result: EXISTS → boolean constant,
// scalar → value constant, IN → literal list. Correlated subqueries are
// rejected (binding the inner query against the global schema alone
// fails, surfacing a clear error).
func (e *Engine) materializeSubqueries(ctx context.Context, sel *sql.SelectStmt) error {
	for cur := sel; cur != nil; cur = cur.Union {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Derived tables first (they may contain subqueries).
		if cur.From != nil {
			if err := e.materializeFromSubqueries(ctx, cur.From); err != nil {
				return err
			}
		}
		var err error
		if cur.Where != nil {
			cur.Where, err = e.substituteSubqueries(ctx, cur.Where)
			if err != nil {
				return err
			}
		}
		if cur.Having != nil {
			cur.Having, err = e.substituteSubqueries(ctx, cur.Having)
			if err != nil {
				return err
			}
		}
		for i := range cur.Items {
			if err := ctx.Err(); err != nil {
				return err
			}
			if cur.Items[i].Expr == nil {
				continue
			}
			cur.Items[i].Expr, err = e.substituteSubqueries(ctx, cur.Items[i].Expr)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Engine) materializeFromSubqueries(ctx context.Context, t sql.TableExpr) error {
	switch n := t.(type) {
	case *sql.SubqueryTable:
		return e.materializeSubqueries(ctx, n.Select)
	case *sql.JoinExpr:
		if err := e.materializeFromSubqueries(ctx, n.L); err != nil {
			return err
		}
		return e.materializeFromSubqueries(ctx, n.R)
	default:
		return nil
	}
}

func (e *Engine) substituteSubqueries(ctx context.Context, ex expr.Expr) (expr.Expr, error) {
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
		res, err := e.runSelect(ctx, inner)
		if err != nil {
			firstErr = fmt.Errorf("core: subquery: %w", err)
			return n
		}
		switch sub.Mode {
		case expr.SubExists:
			return expr.NewConst(types.NewBool((len(res.Rows) > 0) != sub.Negate))
		case expr.SubScalar:
			if len(res.Rows) > 1 {
				firstErr = fmt.Errorf("core: scalar subquery returned %d rows", len(res.Rows))
				return n
			}
			if len(res.Rows) == 0 {
				return expr.NewConst(types.Null)
			}
			if len(res.Rows[0]) != 1 {
				firstErr = fmt.Errorf("core: scalar subquery returned %d columns", len(res.Rows[0]))
				return n
			}
			return expr.NewConst(res.Rows[0][0])
		case expr.SubIn:
			// One literal per distinct value, not per row: the list is
			// planned, shipped and probed. NULL is a value here and is
			// kept, once — it decides NOT IN.
			var list []expr.Expr
			seen := map[uint64][]types.Value{}
			for _, r := range res.Rows {
				if len(r) != 1 {
					firstErr = fmt.Errorf("core: IN subquery must return one column, got %d", len(r))
					return n
				}
				h := r[0].Hash(0)
				if slices.ContainsFunc(seen[h], r[0].Equal) {
					continue
				}
				seen[h] = append(seen[h], r[0])
				list = append(list, expr.NewConst(r[0]))
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
// are not supported.
func (e *Engine) CreateView(name, selectSQL string) error {
	sel, err := sql.ParseSelect(selectSQL)
	if err != nil {
		return fmt.Errorf("core: view %s: %w", name, err)
	}
	// Validate by planning the body before defining the name (this also
	// rejects self-reference: the name does not resolve yet).
	if _, err := plan.NewBuilder(e.cat).BuildSelect(sel); err != nil {
		return fmt.Errorf("core: view %s does not plan: %w", name, err)
	}
	return e.cat.DefineView(name, selectSQL)
}

// ExplainAnalyze plans AND executes a SELECT, returning the plan
// annotated with each operator's measured row count and inclusive time,
// followed by the total.
func (e *Engine) ExplainAnalyze(ctx context.Context, text string, params ...types.Value) (out string, err error) {
	ctx, stmt, finish, err := e.begin(ctx, text, true, params)
	if err != nil {
		return "", err
	}
	defer func() { err = finish(err) }()
	sel, err := explained(stmt)
	if err != nil {
		return "", err
	}
	return e.analyzeSelect(ctx, sel)
}

// analyzeSelect plans and runs sel and annotates the plan from the
// operators' records, which are kept on ctx's trace. ExplainAnalyze has
// instrument attach one; Run learns that a statement is an EXPLAIN
// ANALYZE only by parsing it, after instrument, and may arrive without:
// the records then go on a trace of this call's own.
func (e *Engine) analyzeSelect(ctx context.Context, sel *sql.SelectStmt) (string, error) {
	if !obs.Enabled(ctx) {
		ctx = obs.WithTrace(ctx, obs.NewTrace(""))
	}
	p, err := e.planSelect(ctx, sel)
	if err != nil {
		return "", err
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

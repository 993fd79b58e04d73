// Package exec implements the mediator's Volcano-style execution engine:
// streaming iterators for filter/project/limit/union, hash-based join,
// aggregation and duplicate elimination, sort, fragment scans with
// mediator-side compensation and representation translation, and the
// distributed join strategies (ship-all, semijoin).
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/resilience"
	"gis/internal/source"
	"gis/internal/types"
)

// Run executes an optimized plan and streams its result rows, which are
// the caller's to keep unless it tells the stream otherwise (source.Use,
// before the first Next: DESIGN.md "Who keeps a row"). An operator that
// builds or folds its output from its input tells the input it opens
// source.Lent; one that passes rows through forwards what it is told.
// Under a traced context (obs.Enabled: interactive tracing, a query-log
// sample, EXPLAIN ANALYZE) every operator execution gets an exec span
// and the measuring wrapper; untraced, the operator's own iterator is
// returned.
func Run(ctx context.Context, n plan.Node) (source.RowIter, error) {
	if !obs.Enabled(ctx) {
		return run(ctx, n)
	}
	ctx, span := obs.StartSpan(ctx, obs.SpanExec, opLabel(n))
	start := time.Now()
	it, err := run(ctx, n)
	if err != nil {
		span.End()
		return nil, err
	}
	// One wrapper per traced operator execution, not per row. What run
	// did before it had a stream to return is the operator's time too.
	m := &opIter{in: it, span: span, st: obs.OpStats{Op: n, Open: time.Since(start)}}
	switch n.(type) {
	case *plan.FragScan, *plan.Join, *plan.Filter, *plan.Aggregate:
		// The operators whose output the optimizer estimates. A scan
		// augmented with shipped keys never gets here (the join runs it
		// itself), which is right: the estimate describes the original
		// predicate.
		m.st.EstRows, m.st.HasEst = plan.EstimateRows(n), true
	default:
		// A project, sort or limit would only echo its input's estimate.
	}
	return m, nil
}

// opLabel names an operator span from the first line of its Describe.
func opLabel(n plan.Node) string {
	d := n.Describe()
	if i := strings.IndexByte(d, '\n'); i >= 0 {
		d = d[:i]
	}
	if len(d) > 80 {
		d = d[:77] + "..."
	}
	return d
}

// opIter is the one measuring wrapper. Run installs it around an
// operator's output, and runFragScan around a scan's wire stream, when
// the statement is traced. It fills a private obs.OpStats while rows
// flow — one record per execution, so parallel-union branches and
// semijoin fan-out share nothing — and publishes it on the span when
// the stream ends.
type opIter struct {
	in   source.RowIter
	span *obs.Span
	// fetch, on a wire stream, is the ship span's child covering only
	// the streaming part after Execute returned.
	fetch *obs.Span
	st    obs.OpStats
	done  bool
}

func (o *opIter) Next() (types.Row, error) {
	start := time.Now()
	r, err := o.in.Next()
	o.st.Next += time.Since(start)
	if err == nil {
		o.st.Rows++
		o.st.Bytes += int64(r.EstimatedSize())
	} else if err == io.EOF {
		o.finish()
	}
	return r, err
}

// Use implements source.Hinted: the rows are the operator's.
func (o *opIter) Use(n int) { source.Use(o.in, n) }

// Close times the teardown as well: discarding an undrained remote
// cursor can dominate a LIMIT query's cost.
func (o *opIter) Close() error {
	start := time.Now()
	err := o.in.Close()
	o.st.Close += time.Since(start)
	o.finish()
	return err
}

// finish publishes the record and, the first time, ends the spans.
func (o *opIter) finish() {
	o.span.SetStats(&o.st)
	if o.done {
		return
	}
	o.done = true
	if o.fetch != nil {
		streamed := obs.OpStats{Rows: o.st.Rows, Bytes: o.st.Bytes}
		o.fetch.SetStats(&streamed)
		o.fetch.End()
	}
	o.span.End()
}

func run(ctx context.Context, n plan.Node) (source.RowIter, error) {
	switch t := n.(type) {
	case *plan.FragScan:
		return runFragScan(ctx, t, nil)

	case *plan.Filter:
		in, err := Run(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		return &filterIter{ctx: ctx, in: in, pred: t.Pred}, nil

	case *plan.Project:
		if identityProject(t) {
			// The input's rows are already the output's; rows are
			// read-only downstream, so no copy is owed.
			return Run(ctx, t.Input)
		}
		in, err := Run(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		source.Use(in, source.Lent)
		return &projectIter{ctx: ctx, in: in, exprs: t.Exprs}, nil

	case *plan.Join:
		return runJoin(ctx, t)

	case *plan.Aggregate:
		return runAggregate(ctx, t)

	case *plan.Sort:
		return runSort(ctx, t)

	case *plan.Limit:
		in, err := Run(ctx, t.Input)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, remaining: t.N, offset: t.Offset}, nil

	case *plan.Union:
		return runMerge(ctx, t.Inputs, nil, t.Parallel), nil

	case *plan.Values:
		// Every row is carved from one array cut to size, each with a
		// full slice expression so that appending to one copies.
		rows := make([]types.Row, len(t.Rows))
		n := 0
		for _, exprs := range t.Rows {
			n += len(exprs)
		}
		flat := make([]types.Value, n)
		for i, exprs := range t.Rows {
			row := flat[:len(exprs):len(exprs)]
			flat = flat[len(exprs):]
			for j, e := range exprs {
				v, err := e.Eval(nil)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			rows[i] = row
		}
		return source.SliceIter(rows), nil

	case *plan.GlobalScan:
		return nil, fmt.Errorf("exec: plan was not decomposed (GlobalScan %s reached the executor)", t.Table.Name)

	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// Collect runs the plan and materializes every row: it keeps them, and
// they stay charged to the statement's memory quota until it ends.
func Collect(ctx context.Context, n plan.Node) ([]types.Row, error) {
	acct := accountOn(ctx)
	return acct.collect(ctx, n)
}

// ---- what the mediator holds ----

// account is what one holder of rows at the mediator has charged to its
// statement's memory quota (DESIGN.md "What the memory quota charges"):
// Collect's kept rows, a join's kept sides, a group table's groups, a
// top-k heap. The holder grows it as it keeps rows and closes it when it
// lets them go, or fails. A statement without a quota has no session to
// charge: sess is nil, and no row is sized.
type account struct {
	sess *admission.Session
	held int64
}

// accountOn opens a holder's account on ctx's statement.
func accountOn(ctx context.Context) account {
	if s := admission.SessionFrom(ctx); s.Metered() {
		return account{sess: s}
	}
	return account{}
}

// grow charges r, which the holder has come to keep. Past the quota it
// charges nothing and returns the statement's typed mem_quota error.
func (a *account) grow(r types.Row) error {
	if a.sess == nil {
		return nil
	}
	n := int64(r.EstimatedSize())
	if err := a.sess.Grow(n); err != nil {
		return err
	}
	a.held += n
	return nil
}

// shrink gives r's charge back: the holder let r go.
func (a *account) shrink(r types.Row) {
	if a.sess != nil {
		n := int64(r.EstimatedSize())
		a.sess.Shrink(n)
		a.held -= n
	}
}

// close gives back everything the holder charged.
func (a *account) close() {
	if a.sess != nil {
		a.sess.Shrink(a.held)
		a.held = 0
	}
}

// closeOnError closes a if *err is set: a holder that fails lets go.
func (a *account) closeOnError(err *error) {
	if *err != nil {
		a.close()
	}
}

// collect runs n and keeps every row, charged to a, in a slice sized
// from n's estimate, and tells the stage that builds the rows how many
// it keeps (source.Use): they are carved from one block of that size.
func (a *account) collect(ctx context.Context, n plan.Node) ([]types.Row, error) {
	it, err := Run(ctx, n)
	if err != nil {
		return nil, err
	}
	est := plan.EstimateRows(n)
	source.Use(it, keptRows(est))
	return a.drain(it, rowsHint(est))
}

// maxRowsHint caps the room an estimate sets aside for a result: an
// over-estimate holds at most this many unused row headers, and a longer
// result goes on in chunks as an unsized drain does. It caps the rows a
// builder is told it keeps the same way.
const maxRowsHint = 1 << 14

// keptRows is the row count an estimate tells a builder: the estimate
// rounded up, at most maxRowsHint. A block is not given slack as the
// headers are: a row of the block left unused is all of its columns.
func keptRows(est float64) int {
	if !(est >= 0) {
		return 0
	}
	return int(min(math.Ceil(est), maxRowsHint))
}

// rowsHint is the room to keep an estimate's rows in: the estimate and a
// sixteenth more, so that an estimate a little short still fits. (An
// eighth more would put a right estimate of a few thousand rows a page
// past the result: the heap rounds a large slice up to whole pages.)
func rowsHint(est float64) int {
	if !(est >= 0) {
		return 0
	}
	return int(min(est+est/16+1, maxRowsHint))
}

// drain keeps every row of it, charged to a, starting with room for
// hint rows.
func (a *account) drain(it source.RowIter, hint int) ([]types.Row, error) {
	if a.sess == nil {
		return source.DrainEach(it, hint, nil)
	}
	return source.DrainEach(it, hint, a.grow)
}

// rows streams rows the holder kept; closing the stream closes a.
func (a *account) rows(rows []types.Row) source.RowIter {
	if a.sess == nil {
		return source.SliceIter(rows)
	}
	sess, held := a.sess, a.held
	return source.HeldIter(rows, func() { sess.Shrink(held) })
}

// ---- filter ----

type filterIter struct {
	ctx  context.Context
	in   source.RowIter
	pred expr.Expr
}

func (f *filterIter) Next() (types.Row, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		r, err := f.in.Next()
		if err != nil {
			return nil, err
		}
		ok, err := expr.EvalBool(f.pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}

// Use implements source.Hinted: the rows are the input's.
func (f *filterIter) Use(n int) { source.Use(f.in, n) }

func (f *filterIter) Close() error { return f.in.Close() }

// ---- project ----

type projectIter struct {
	ctx   context.Context
	in    source.RowIter
	exprs []expr.Expr
	slab  types.RowSlab
}

func (p *projectIter) Next() (types.Row, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	r, err := p.in.Next()
	if err != nil {
		return nil, err
	}
	out := p.slab.Next(len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(r)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Use implements source.Hinted: one row lent, or the kept rows carved
// from one block.
func (p *projectIter) Use(n int) { p.slab.Use(n) }

func (p *projectIter) Close() error { return p.in.Close() }

// identityProject reports whether p emits its input rows unchanged, as
// the select list over a scan does (kept for the result's names). After
// optimization no Project's input is a Project, except where composing
// would evaluate a computed column twice.
func identityProject(p *plan.Project) bool {
	if len(p.Exprs) != p.Input.Schema().Len() {
		return false
	}
	for i, e := range p.Exprs {
		if c, ok := e.(*expr.ColRef); !ok || c.Index != i {
			return false
		}
	}
	return true
}

// ---- limit ----

type limitIter struct {
	in        source.RowIter
	remaining int64
	offset    int64
	done      bool
}

func (l *limitIter) Next() (types.Row, error) {
	if l.done {
		return nil, io.EOF
	}
	for l.offset > 0 {
		if _, err := l.in.Next(); err != nil {
			return nil, err
		}
		l.offset--
	}
	if l.remaining <= 0 {
		l.done = true
		if err := l.in.Close(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	r, err := l.in.Next()
	if err != nil {
		return nil, err
	}
	l.remaining--
	return r, nil
}

// Use implements source.Hinted: the rows are the input's. Lent passes
// unchanged; a kept count is at most the limit's: at the limit the
// input carves the offset's rows as well, short of it the input ends
// first. (An offset so large that the sum overflows tells nothing.)
func (l *limitIter) Use(n int) {
	if n > 0 && int64(n) >= l.remaining {
		n = max(0, int(l.remaining+l.offset))
	}
	source.Use(l.in, n)
}

func (l *limitIter) Close() error { return l.in.Close() }

// ---- union: the one merge ----

// runMerge merges its inputs' rows through one channel, in which rows
// wait: the inputs keep. It is exec's one fan-out: a union's, and a
// key-shipped join's right side. queries is nil for a union; otherwise
// every input is a fragment scan and queries[i] what input i's source
// is asked in place of its scan's query: that query with a chunk of
// join keys shipped.
//
// Consecutive inputs over one node — a fragment's key chunks — are one
// branch, run in turn. With parallel a goroutine runs each branch and
// rows arrive as they come (order across branches is unspecified, as for
// UNION ALL); without it one goroutine runs the branches in plan order,
// one input open at a time, and rows arrive in that order.
func runMerge(ctx context.Context, inputs []plan.Node, queries []*source.Query, parallel bool) source.RowIter {
	cctx, cancel := context.WithCancel(ctx)
	// 64 rows let a fetcher run ahead of the consumer without a hand-off
	// per row, and bound what the merge holds for a consumer that stalls.
	m := &mergeIter{ctx: cctx, cancel: cancel, outc: resilience.OutcomesFrom(ctx), inputs: inputs, queries: queries, ch: make(chan rowOrErr, 64)}
	for lo, hi := 0, 0; lo < len(inputs); lo = hi {
		hi = len(inputs)
		if parallel {
			hi = m.branchEnd(lo)
		}
		m.fetchers.Add(1)
		go m.fetch(lo, hi)
	}
	go m.closeWhenDone()
	return m
}

// closeWhenDone closes the channel once every fetcher has returned.
func (m *mergeIter) closeWhenDone() {
	m.fetchers.Wait()
	close(m.ch)
}

// rowOrErr carries one row (or a terminal error) through the merge
// channel.
type rowOrErr struct {
	row types.Row
	err error
}

type mergeIter struct {
	// ctx is the merge's own: it covers the query's deadline and an
	// early Close or failure of the merge.
	ctx     context.Context
	cancel  context.CancelFunc
	outc    *resilience.Outcomes
	inputs  []plan.Node
	queries []*source.Query
	ch      chan rowOrErr
	failed  bool
	// fetchers counts the fetch goroutines still running, which read
	// the plan: Close waits for them, so that a plan the statement
	// cache hands to the next call is read by none.
	fetchers sync.WaitGroup
}

// branchEnd is the end of the branch that starts at input lo.
func (m *mergeIter) branchEnd(lo int) int {
	hi := lo + 1
	for hi < len(m.inputs) && m.inputs[hi] == m.inputs[lo] {
		hi++
	}
	return hi
}

// fetch runs the branches of inputs[lo:hi] one after another, each one's
// inputs in turn until one fails. A failed branch is recorded as a
// partial outcome when the engine armed a collector, the merge is still
// live and the failure is a source's — not the statement's memory quota
// refusing a holder — and the rows it delivered stay (UNION ALL
// semantics make that well-defined); otherwise its error fails the
// merge.
func (m *mergeIter) fetch(lo, hi int) {
	defer m.fetchers.Done()
	for end := lo; lo < hi; lo = end {
		end = m.branchEnd(lo)
		var rows int64
		var err error
		for i := lo; i < end && err == nil; i++ {
			err = m.input(i, &rows)
		}
		if err != nil && (m.outc == nil || m.ctx.Err() != nil || overQuota(err)) {
			select {
			case m.ch <- rowOrErr{err: err}:
			case <-m.ctx.Done():
			}
			return
		}
		if m.outc != nil {
			op := "union"
			if m.queries != nil {
				op = "semijoin"
			}
			m.outc.Record(resilience.SourceOutcome{Source: srcLabel(m.inputs[lo]), Op: op, Rows: rows, Err: err})
		}
	}
}

// overQuota reports whether err is the statement's own memory quota
// refusing a holder.
func overQuota(err error) bool {
	var oe *admission.OverloadError
	return errors.As(err, &oe) && oe.Reason == admission.ReasonMemQuota
}

// input runs input i and streams its rows into the channel, counting
// them into rows. A keyed input is its fragment scan with the keys
// shipped, run as the scan alone: what a trace records of it is the
// wire half, under the plan's FragScan.
func (m *mergeIter) input(i int, rows *int64) error {
	var it source.RowIter
	var err error
	if m.queries != nil {
		it, err = runFragScan(m.ctx, m.inputs[i].(*plan.FragScan), m.queries[i])
	} else {
		it, err = Run(m.ctx, m.inputs[i])
	}
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		r, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case m.ch <- rowOrErr{row: r}:
			*rows++
		case <-m.ctx.Done():
			return m.ctx.Err()
		}
	}
}

func (m *mergeIter) Next() (types.Row, error) {
	if m.failed {
		return nil, io.EOF
	}
	it, ok := <-m.ch
	if !ok {
		// Every input ended, or the query was cancelled under them.
		if err := m.ctx.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	if it.err != nil {
		m.failed = true
		m.cancel()
		return nil, it.err
	}
	return it.row, nil
}

// Close cancels the fetchers still running and waits for them to
// return: a fetcher blocked on the channel returns at once, one in its
// input when the input next answers.
func (m *mergeIter) Close() error {
	m.cancel()
	m.fetchers.Wait()
	return nil
}

// ---- sort ----

// sortKeys evaluates s's keys over r into k.
func sortKeys(s *plan.Sort, r, k types.Row) error {
	for j, sk := range s.Keys {
		v, err := sk.E.Eval(r)
		if err != nil {
			return err
		}
		k[j] = v
	}
	return nil
}

// compareKeys orders two key tuples of s.
func compareKeys(s *plan.Sort, a, b types.Row) int {
	for j, sk := range s.Keys {
		c := a[j].Compare(b[j])
		if sk.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// runSort orders its input; rows that tie keep the order they arrived
// in, which also makes the order total, so no sort here need be stable.
//
// A Sort keeps every row — unless the Limit above reads only s.Top of
// them. Then it keeps s.Top: it asks for lent rows, evaluates each one's
// keys into a scratch tuple, and copies keys and row — into the storage
// of the row they push out, once s.Top are held — only when they sort
// before the last one it holds, which is the root of a max-heap ordered
// as the result is. What it holds grows as rows arrive and is never
// sized from s.Top alone, which is as large as OFFSET makes it: the
// rows it copies are one block of s.Top rows or of its input's
// estimate, the fewer (types.RowSlab.Use). Either way what it holds
// is charged to the statement's quota until its output is closed.
func runSort(ctx context.Context, s *plan.Sort) (_ source.RowIter, err error) {
	nk := len(s.Keys)
	acct := accountOn(ctx)
	defer acct.closeOnError(&err)
	if s.Top <= 0 {
		rows, err := acct.collect(ctx, s.Input)
		if err != nil {
			return nil, err
		}
		// Precompute key tuples, then sort by them. All tuples share one
		// flat backing array: two allocations total instead of one per row.
		keys := make([]types.Row, len(rows))
		flat := make(types.Row, len(rows)*nk)
		for i, r := range rows {
			keys[i] = flat[i*nk : (i+1)*nk : (i+1)*nk]
			if err := sortKeys(s, r, keys[i]); err != nil {
				return nil, err
			}
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int {
			if c := compareKeys(s, keys[a], keys[b]); c != 0 {
				return c
			}
			return a - b
		})
		out := make([]types.Row, len(rows))
		for i, j := range idx {
			out[i] = rows[j]
		}
		return acct.rows(out), nil
	}

	in, err := Run(ctx, s.Input)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	source.Use(in, source.Lent)
	// A held row is its key tuple and the input row behind it, in one
	// carved row; seq is its place in the input.
	type held struct {
		row types.Row
		seq int
	}
	var (
		top  []held
		slab types.RowSlab
		key  = make(types.Row, nk)
	)
	// The heap carves no more rows than it holds, nor than its input has.
	carved := min(s.Top, int64(keptRows(plan.EstimateRows(s.Input))))
	slab.Use(int(carved))
	before := func(a, b held) int {
		if c := compareKeys(s, a.row[:nk], b.row[:nk]); c != 0 {
			return c
		}
		return a.seq - b.seq
	}
	for seq := 0; ; seq++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := sortKeys(s, r, key); err != nil {
			return nil, err
		}
		var h held
		i := 0
		switch {
		case int64(len(top)) < s.Top:
			h, i = held{slab.Next(nk + len(r)), seq}, len(top)
			top = append(top, h)
		case compareKeys(s, key, top[0].row[:nk]) < 0:
			h = held{top[0].row, seq} // the root is pushed out: h takes its storage
			acct.shrink(h.row)
		default:
			continue
		}
		copy(h.row, key)
		copy(h.row[nk:], r)
		if err := acct.grow(h.row); err != nil {
			return nil, err
		}
		// Sift h up from the new leaf, or down from the root.
		for i > 0 && before(top[(i-1)/2], h) < 0 {
			top[i] = top[(i-1)/2]
			i = (i - 1) / 2
		}
		for c := 2*i + 1; c < len(top); c = 2*i + 1 {
			if c+1 < len(top) && before(top[c], top[c+1]) < 0 {
				c++
			}
			if before(h, top[c]) >= 0 {
				break
			}
			top[i] = top[c]
			i = c
		}
		top[i] = h
	}
	slices.SortFunc(top, before)
	out := make([]types.Row, len(top))
	for i, h := range top {
		out[i] = h.row[nk:]
	}
	return acct.rows(out), nil
}

// ---- aggregate ----

// runAggregate folds each input row into its group before it asks for
// the next, so it tells its input Lent; the group rows it returns are
// its own, one per group. A group's key is charged to the statement's
// quota when the group starts, until the output is closed.
func runAggregate(ctx context.Context, a *plan.Aggregate) (_ source.RowIter, err error) {
	in, err := Run(ctx, a.Input)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	source.Use(in, source.Lent)
	acct := accountOn(ctx)
	defer acct.closeOnError(&err)
	aggs := make([]expr.AccSpec, len(a.Aggs))
	for i, ag := range a.Aggs {
		aggs[i] = expr.AccSpec{Kind: ag.Kind, Star: ag.Arg == nil, Distinct: ag.Distinct}
	}
	groups := expr.NewGroupTable(len(a.GroupBy), aggs)
	// key is reused across input rows; the table copies it only when it
	// starts a group.
	key := make(types.Row, len(a.GroupBy))
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, g := range a.GroupBy {
			if key[i], err = g.Eval(r); err != nil {
				return nil, err
			}
		}
		n := groups.Len()
		g := groups.Group(key)
		if g == n {
			if err := acct.grow(key); err != nil {
				return nil, err
			}
		}
		for j, ag := range a.Aggs {
			var v types.Value
			if ag.Arg != nil {
				if v, err = ag.Arg.Eval(r); err != nil {
					return nil, err
				}
			}
			if err := groups.Fold(g, j, v); err != nil {
				return nil, err
			}
		}
	}
	return acct.rows(groups.Rows()), nil
}

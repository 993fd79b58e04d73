// Package exec implements the mediator's Volcano-style execution engine:
// streaming iterators for filter/project/limit/union, hash-based join,
// aggregation and duplicate elimination, sort, fragment scans with
// mediator-side compensation and representation translation, and the
// distributed join strategies (ship-all, semijoin).
package exec

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/resilience"
	"gis/internal/source"
	"gis/internal/types"
)

// Run executes an optimized plan and streams its result rows, which are
// the caller's to keep. Under a traced context (obs.Enabled: interactive
// tracing, a query-log sample, EXPLAIN ANALYZE) every operator execution
// gets an exec span and the measuring wrapper; untraced, the operator's
// own iterator is returned.
func Run(ctx context.Context, n plan.Node) (source.RowIter, error) {
	return runNode(ctx, n, false)
}

// runNode is Run for a consumer inside the executor, which says whether
// it keeps the rows it is handed. lent is the one fact that decides
// where a row is allocated (DESIGN.md "Who keeps a row"): true means the
// consumer is done with each row before it asks for the next, so the
// stage that builds the row may hand out the same storage again. An
// operator that builds its output from its input asks its input for
// lent rows and lends its own iff told to; one that passes rows through
// forwards what it was told; one that keeps rows asks for kept ones.
func runNode(ctx context.Context, n plan.Node, lent bool) (source.RowIter, error) {
	if !obs.Enabled(ctx) {
		return run(ctx, n, lent)
	}
	ctx, span := obs.StartSpan(ctx, obs.SpanExec, opLabel(n))
	start := time.Now()
	it, err := run(ctx, n, lent)
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

func run(ctx context.Context, n plan.Node, lent bool) (source.RowIter, error) {
	switch t := n.(type) {
	case *plan.FragScan:
		return runFragScan(ctx, t, nil, lent)

	case *plan.Filter:
		in, err := runNode(ctx, t.Input, lent)
		if err != nil {
			return nil, err
		}
		return &filterIter{ctx: ctx, in: in, pred: t.Pred}, nil

	case *plan.Project:
		if identityProject(t) {
			// The input's rows are already the output's; rows are
			// read-only downstream, so no copy is owed.
			return runNode(ctx, t.Input, lent)
		}
		in, err := runNode(ctx, t.Input, true)
		if err != nil {
			return nil, err
		}
		return &projectIter{ctx: ctx, in: in, exprs: t.Exprs, slab: slabFor(lent)}, nil

	case *plan.Join:
		return runJoin(ctx, t, lent)

	case *plan.Aggregate:
		return runAggregate(ctx, t)

	case *plan.Sort:
		return runSort(ctx, t)

	case *plan.Limit:
		in, err := runNode(ctx, t.Input, lent)
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

// slabFor is the slab of a stage that builds rows and was told lent.
func slabFor(lent bool) (s types.RowSlab) {
	if lent {
		s.Lend()
	}
	return s
}

// Collect runs the plan and materializes every row: it keeps them.
func Collect(ctx context.Context, n plan.Node) ([]types.Row, error) {
	it, err := Run(ctx, n)
	if err != nil {
		return nil, err
	}
	return source.Drain(it)
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

func (p *projectIter) Close() error { return p.in.Close() }

// identityProject reports whether p emits its input rows unchanged:
// column i at position i, for every column of the input. The planner
// keeps such a node (it carries the output names), the executor need
// not run it.
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

func (l *limitIter) Close() error { return l.in.Close() }

// ---- union: the one merge ----

// runMerge merges its inputs' rows through one channel, in which rows
// wait: the inputs keep. It is exec's one fan-out: a union's, and a
// key-shipped join's right side. keys is nil for a union; otherwise
// every input is a fragment scan and keys[i] the predicate over its
// remote table that ships a chunk of join keys to input i.
//
// Consecutive inputs over one node — a fragment's key chunks — are one
// branch, run in turn. With parallel a goroutine runs each branch and
// rows arrive as they come (order across branches is unspecified, as for
// UNION ALL); without it one goroutine runs the branches in plan order,
// one input open at a time, and rows arrive in that order.
func runMerge(ctx context.Context, inputs []plan.Node, keys []expr.Expr, parallel bool) source.RowIter {
	cctx, cancel := context.WithCancel(ctx)
	// 64 rows let a fetcher run ahead of the consumer without a hand-off
	// per row, and bound what the merge holds for a consumer that stalls.
	m := &mergeIter{ctx: cctx, cancel: cancel, outc: resilience.OutcomesFrom(ctx), inputs: inputs, keys: keys, ch: make(chan rowOrErr, 64)}
	var wg sync.WaitGroup
	for lo, hi := 0, 0; lo < len(inputs); lo = hi {
		hi = len(inputs)
		if parallel {
			hi = m.branchEnd(lo)
		}
		wg.Add(1)
		go m.fetch(&wg, lo, hi)
	}
	go func() {
		wg.Wait()
		close(m.ch)
	}()
	return m
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
	ctx    context.Context
	cancel context.CancelFunc
	outc   *resilience.Outcomes
	inputs []plan.Node
	keys   []expr.Expr
	ch     chan rowOrErr
	failed bool
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
// partial outcome when the engine armed a collector and the merge is
// still live, and the rows it delivered stay (UNION ALL semantics make
// that well-defined); otherwise its error fails the merge.
func (m *mergeIter) fetch(wg *sync.WaitGroup, lo, hi int) {
	defer wg.Done()
	for end := lo; lo < hi; lo = end {
		end = m.branchEnd(lo)
		var rows int64
		var err error
		for i := lo; i < end && err == nil; i++ {
			err = m.input(i, &rows)
		}
		if err != nil && (m.outc == nil || m.ctx.Err() != nil) {
			select {
			case m.ch <- rowOrErr{err: err}:
			case <-m.ctx.Done():
			}
			return
		}
		if m.outc != nil {
			op := "union"
			if m.keys != nil {
				op = "semijoin"
			}
			m.outc.Record(resilience.SourceOutcome{Source: srcLabel(m.inputs[lo]), Op: op, Rows: rows, Err: err})
		}
	}
}

// input runs input i and streams its rows into the channel, counting
// them into rows. A keyed input is its fragment scan with the keys
// shipped, run as the scan alone: what a trace records of it is the
// wire half, under the plan's FragScan.
func (m *mergeIter) input(i int, rows *int64) error {
	var it source.RowIter
	var err error
	if m.keys != nil {
		it, err = runFragScan(m.ctx, m.inputs[i].(*plan.FragScan), m.keys[i], false)
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

func (m *mergeIter) Close() error {
	m.cancel()
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
// sized from s.Top, which is as large as OFFSET makes it.
func runSort(ctx context.Context, s *plan.Sort) (source.RowIter, error) {
	nk := len(s.Keys)
	if s.Top <= 0 {
		rows, err := Collect(ctx, s.Input)
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
		return source.SliceIter(out), nil
	}

	in, err := runNode(ctx, s.Input, true)
	if err != nil {
		return nil, err
	}
	defer in.Close()
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
		default:
			continue
		}
		copy(h.row, key)
		copy(h.row[nk:], r)
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
	return source.SliceIter(out), nil
}

// ---- aggregate ----

// runAggregate folds each input row into its group before it asks for
// the next, so it asks for lent rows; the group rows it returns are its
// own, one per group.
func runAggregate(ctx context.Context, a *plan.Aggregate) (source.RowIter, error) {
	in, err := runNode(ctx, a.Input, true)
	if err != nil {
		return nil, err
	}
	defer in.Close()
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
		for i, acc := range groups.Group(key) {
			v := types.NewInt(1)
			if arg := a.Aggs[i].Arg; arg != nil {
				if v, err = arg.Eval(r); err != nil {
					return nil, err
				}
			}
			if err := acc.Add(v); err != nil {
				return nil, err
			}
		}
	}
	return source.SliceIter(groups.Rows()), nil
}

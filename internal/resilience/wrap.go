package resilience

import (
	"context"
	"fmt"
	"io"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// WrapSource guards src with the per-source call policy. Idempotent
// reads (Tables, TableInfo, Execute) are breaker-gated and retried with
// backoff; writes and transaction control are forwarded exactly once —
// their outcomes are recorded on the breaker, but they are never retried
// and never rejected by the breaker (a global write in flight must
// reach its participant or fail honestly, not be silently re-sent or
// short-circuited halfway through a 2PC round).
//
// What src can be asked is what its capability vector says, which the
// guard passes on unchanged; the guard itself has every facet, and
// refuses by name the one src turns out not to implement.
func WrapSource(src source.Source, p *Policy) *Guarded {
	w, _ := src.(source.Writer)
	return &Guarded{src: src, p: p, onceWriter: onceWriter{w: w, b: NewBreaker(src.Name(), p)}}
}

// Guarded is a wrapped source: its reads retried, its autocommit writes
// (onceWriter, which also holds its breaker) and BeginTx forwarded
// once.
type Guarded struct {
	src source.Source
	p   *Policy
	onceWriter
}

// Breaker returns the source's breaker: its health as the calls made
// through this guard found it.
func (g *Guarded) Breaker() *Breaker { return g.b }

// Name implements source.Source.
func (g *Guarded) Name() string { return g.src.Name() }

// Capabilities implements source.Source.
func (g *Guarded) Capabilities() source.Capabilities { return g.src.Capabilities() }

// Tables implements source.Source with retry and breaker gating.
func (g *Guarded) Tables(ctx context.Context) ([]string, error) {
	var out []string
	err := Retry(ctx, g.p, g.b, g.src.Name()+":tables", func(ctx context.Context) error {
		var err error
		out, err = g.src.Tables(ctx)
		return err
	})
	return out, err
}

// TableInfo implements source.Source with retry and breaker gating.
func (g *Guarded) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	var out *source.TableInfo
	err := Retry(ctx, g.p, g.b, g.src.Name()+":tableinfo", func(ctx context.Context) error {
		var err error
		out, err = g.src.TableInfo(ctx, table)
		return err
	})
	return out, err
}

// Execute implements source.Source. The call that opens the stream is
// retried (no rows have been delivered yet, so a re-execute is safe);
// the stream itself runs under the query's own deadline, and mid-stream
// failures feed the breaker but are not retried — rows already handed
// upstream cannot be un-delivered.
func (g *Guarded) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	var it source.RowIter
	err := retry(ctx, g.p, g.b, g.src.Name()+":execute", 0, func(ctx context.Context) error {
		var err error
		it, err = g.src.Execute(ctx, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &healthIter{it: it, ctx: ctx, b: g.b}, nil
}

// Stats forwards optimizer statistics when the underlying source
// provides them. Statistics collection has its own fallback (a full
// scan), so it is deliberately not retried or breaker-gated.
func (g *Guarded) Stats(table string) (*stats.TableStats, error) {
	sp, ok := g.src.(source.StatsProvider)
	if !ok {
		return nil, fmt.Errorf("resilience: source %s does not provide statistics", g.src.Name())
	}
	return sp.Stats(table)
}

// healthIter records mid-stream failures on the breaker.
type healthIter struct {
	it  source.RowIter
	ctx context.Context
	b   *Breaker
}

// Next implements source.RowIter.
func (i *healthIter) Next() (types.Row, error) {
	row, err := i.it.Next()
	if err != nil && err != io.EOF {
		i.b.Record(i.ctx, err)
	}
	return row, err
}

// Lend implements source.Lender: the rows are the inner iterator's.
func (i *healthIter) Lend() { source.Lend(i.it) }

// Keep implements source.Keeper: the rows are the inner iterator's.
func (i *healthIter) Keep(n int) { source.Keep(i.it, n) }

// Close implements source.RowIter.
func (i *healthIter) Close() error { return i.it.Close() }

// onceWriter is a Writer facet behind the guard — a source's autocommit
// one, or a transaction's: each write is forwarded exactly once, never
// retried, and its outcome is recorded on the source's breaker. w is
// nil for a source without the facet, which is refused by name.
type onceWriter struct {
	w source.Writer
	b *Breaker
}

func (o onceWriter) refusal() error {
	return fmt.Errorf("resilience: source %s is not writable", o.b.source)
}

// Insert implements source.Writer (no retry).
func (o onceWriter) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	if o.w == nil {
		return 0, o.refusal()
	}
	n, err := o.w.Insert(ctx, table, rows)
	o.b.Record(ctx, err)
	return n, err
}

// Update implements source.Writer (no retry).
func (o onceWriter) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	if o.w == nil {
		return 0, o.refusal()
	}
	n, err := o.w.Update(ctx, table, filter, set)
	o.b.Record(ctx, err)
	return n, err
}

// Delete implements source.Writer (no retry).
func (o onceWriter) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	if o.w == nil {
		return 0, o.refusal()
	}
	n, err := o.w.Delete(ctx, table, filter)
	o.b.Record(ctx, err)
	return n, err
}

// BeginTx implements source.Transactional (no retry).
func (g *Guarded) BeginTx(ctx context.Context) (source.Tx, error) {
	t, ok := g.src.(source.Transactional)
	if !ok {
		return nil, fmt.Errorf("resilience: source %s is not transactional", g.src.Name())
	}
	tx, err := t.BeginTx(ctx)
	g.b.Record(ctx, err)
	if err != nil {
		return nil, err
	}
	return &guardedTx{onceWriter: onceWriter{w: tx, b: g.b}, tx: tx}, nil
}

// guardedTx forwards every transactional operation exactly once. 2PC
// prepare/commit/abort MUST NOT be retried here: retrying a vote can
// turn an abort into a phantom commit, and commit-phase retries are the
// coordinator's job (it owns the decision log and the in-doubt
// bookkeeping).
type guardedTx struct {
	onceWriter
	tx source.Tx
}

// Prepare implements source.Tx (no retry: a 2PC vote is sent once).
func (t *guardedTx) Prepare(ctx context.Context) error {
	err := t.tx.Prepare(ctx)
	t.b.Record(ctx, err)
	return err
}

// Commit implements source.Tx (no retry: the coordinator owns commit
// retries and in-doubt tracking).
func (t *guardedTx) Commit(ctx context.Context) error {
	err := t.tx.Commit(ctx)
	t.b.Record(ctx, err)
	return err
}

// Abort implements source.Tx (no retry).
func (t *guardedTx) Abort(ctx context.Context) error {
	err := t.tx.Abort(ctx)
	t.b.Record(ctx, err)
	return err
}

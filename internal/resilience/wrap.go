package resilience

import (
	"context"
	"errors"
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
// their outcomes feed the health tracker, but they are never retried
// and never rejected by the breaker (a global write in flight must
// reach its participant or fail honestly, not be silently re-sent or
// short-circuited halfway through a 2PC round).
//
// The returned source preserves the optional facets of the original:
// it implements source.Writer and/or source.Transactional only when
// src does, so capability checks in the write planner keep working.
func WrapSource(src source.Source, p *Policy, h *SourceHealth) source.Source {
	g := &Guarded{src: src, p: p, h: h}
	w, isWriter := src.(source.Writer)
	t, isTxn := src.(source.Transactional)
	switch {
	case isWriter && isTxn:
		return &fullGuard{writerGuard: &writerGuard{Guarded: g, w: w}, t: t}
	case isWriter:
		return &writerGuard{Guarded: g, w: w}
	case isTxn:
		return &txnGuard{Guarded: g, t: t}
	default:
		return g
	}
}

// Guarded is the read facet of a wrapped source.
type Guarded struct {
	src source.Source
	p   *Policy
	h   *SourceHealth
}

// Health returns the wrapped source's health record.
func (g *Guarded) Health() *SourceHealth { return g.h }

// Name implements source.Source.
func (g *Guarded) Name() string { return g.src.Name() }

// Capabilities implements source.Source.
func (g *Guarded) Capabilities() source.Capabilities { return g.src.Capabilities() }

// Tables implements source.Source with retry and breaker gating.
func (g *Guarded) Tables(ctx context.Context) ([]string, error) {
	var out []string
	err := Retry(ctx, g.p, g.h, g.src.Name()+":tables", func(ctx context.Context) error {
		var err error
		out, err = g.src.Tables(ctx)
		return err
	})
	return out, err
}

// TableInfo implements source.Source with retry and breaker gating.
func (g *Guarded) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	var out *source.TableInfo
	err := Retry(ctx, g.p, g.h, g.src.Name()+":tableinfo", func(ctx context.Context) error {
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
	err := retry(ctx, g.p, g.h, g.src.Name()+":execute", 0, func(ctx context.Context) error {
		var err error
		it, err = g.src.Execute(ctx, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &healthIter{it: it, ctx: ctx, h: g.h}, nil
}

// Stats forwards optimizer statistics when the underlying source
// provides them. Statistics collection has its own fallback (a full
// scan), so it is deliberately not retried or breaker-gated.
func (g *Guarded) Stats(table string) (*stats.TableStats, error) {
	sp, ok := g.src.(interface {
		Stats(table string) (*stats.TableStats, error)
	})
	if !ok {
		return nil, fmt.Errorf("resilience: source %s does not provide statistics", g.src.Name())
	}
	return sp.Stats(table)
}

// record feeds one unretried call's outcome into the health tracker.
// Caller-side cancellation is nobody's failure.
func (g *Guarded) record(ctx context.Context, err error) {
	switch {
	case err == nil:
		g.h.Success(ctx)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
	default:
		g.h.Failure(ctx, err)
	}
}

// healthIter reports mid-stream failures to the health tracker.
type healthIter struct {
	it  source.RowIter
	ctx context.Context
	h   *SourceHealth
}

// Next implements source.RowIter.
func (i *healthIter) Next() (types.Row, error) {
	row, err := i.it.Next()
	if err != nil && err != io.EOF {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		default:
			i.h.Failure(i.ctx, err)
		}
	}
	return row, err
}

// Lend implements source.Lender: the rows are the inner iterator's.
func (i *healthIter) Lend() { source.Lend(i.it) }

// Close implements source.RowIter.
func (i *healthIter) Close() error { return i.it.Close() }

// writerGuard adds the Writer facet: forwarded once, never retried.
type writerGuard struct {
	*Guarded
	w source.Writer
}

// Insert implements source.Writer (no retry).
func (g *writerGuard) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	n, err := g.w.Insert(ctx, table, rows)
	g.record(ctx, err)
	return n, err
}

// Update implements source.Writer (no retry).
func (g *writerGuard) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	n, err := g.w.Update(ctx, table, filter, set)
	g.record(ctx, err)
	return n, err
}

// Delete implements source.Writer (no retry).
func (g *writerGuard) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	n, err := g.w.Delete(ctx, table, filter)
	g.record(ctx, err)
	return n, err
}

// txnGuard adds the Transactional facet for sources without autocommit
// writes.
type txnGuard struct {
	*Guarded
	t source.Transactional
}

// BeginTx implements source.Transactional (no retry).
func (g *txnGuard) BeginTx(ctx context.Context) (source.Tx, error) {
	return beginTx(ctx, g.Guarded, g.t)
}

// fullGuard is a source with both facets.
type fullGuard struct {
	*writerGuard
	t source.Transactional
}

// BeginTx implements source.Transactional (no retry).
func (g *fullGuard) BeginTx(ctx context.Context) (source.Tx, error) {
	return beginTx(ctx, g.Guarded, g.t)
}

func beginTx(ctx context.Context, g *Guarded, t source.Transactional) (source.Tx, error) {
	tx, err := t.BeginTx(ctx)
	g.record(ctx, err)
	if err != nil {
		return nil, err
	}
	return &guardedTx{tx: tx, g: g}, nil
}

// guardedTx forwards every transactional operation exactly once. 2PC
// prepare/commit/abort MUST NOT be retried here: retrying a vote can
// turn an abort into a phantom commit, and commit-phase retries are the
// coordinator's job (it owns the decision log and the in-doubt
// bookkeeping).
type guardedTx struct {
	tx source.Tx
	g  *Guarded
}

// Insert implements source.Writer within the transaction (no retry).
func (t *guardedTx) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	n, err := t.tx.Insert(ctx, table, rows)
	t.g.record(ctx, err)
	return n, err
}

// Update implements source.Writer within the transaction (no retry).
func (t *guardedTx) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	n, err := t.tx.Update(ctx, table, filter, set)
	t.g.record(ctx, err)
	return n, err
}

// Delete implements source.Writer within the transaction (no retry).
func (t *guardedTx) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	n, err := t.tx.Delete(ctx, table, filter)
	t.g.record(ctx, err)
	return n, err
}

// Prepare implements source.Tx (no retry: a 2PC vote is sent once).
func (t *guardedTx) Prepare(ctx context.Context) error {
	err := t.tx.Prepare(ctx)
	t.g.record(ctx, err)
	return err
}

// Commit implements source.Tx (no retry: the coordinator owns commit
// retries and in-doubt tracking).
func (t *guardedTx) Commit(ctx context.Context) error {
	err := t.tx.Commit(ctx)
	t.g.record(ctx, err)
	return err
}

// Abort implements source.Tx (no retry).
func (t *guardedTx) Abort(ctx context.Context) error {
	err := t.tx.Abort(ctx)
	t.g.record(ctx, err)
	return err
}

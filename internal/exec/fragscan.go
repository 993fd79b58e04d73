package exec

import (
	"context"
	"fmt"
	"time"

	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// runFragScan executes one fragment scan: ship the query, and do the
// mediator's half — translate, filter, project — over what comes back.
// keyed, when not nil, is asked in place of the scan's query: the query
// with a semijoin's keys shipped (plan.KeyQueries).
//
// What the mediator does is the plan's to say: a scan with positions
// (FragScan.Pos) builds its rows, one with an Out projects them, and
// one with neither hands the source's rows on.
//
// A scan that builds its rows is done with the source's row once it
// has, so it tells the source Lent and keeps what its own consumer
// tells it (fragIter.Use); one that hands the source's rows on is the
// source's iterator, which its consumer tells directly.
func runFragScan(ctx context.Context, fs *plan.FragScan, keyed *source.Query) (source.RowIter, error) {
	q := keyed
	if q == nil {
		q = &fs.Query
	}
	var ship *obs.Span
	var shipStart time.Time
	if obs.Enabled(ctx) {
		ctx, ship = obs.StartSpan(ctx, obs.SpanShip, fs.Frag.Source+"."+fs.Frag.RemoteTable)
		ship.SetAttr("source", fs.Frag.Source)
		ship.SetAttr("sql", q.String())
		shipStart = time.Now()
	}
	it, err := fs.Src.Execute(ctx, q)
	if err != nil {
		ship.SetAttr("error", err.Error())
		ship.End()
		return nil, fmt.Errorf("exec: fragment %s.%s: %w", fs.Frag.Source, fs.Frag.RemoteTable, err)
	}
	if fs.Pos != nil {
		source.Use(it, source.Lent)
	}
	if ship != nil {
		_, fetch := obs.StartSpan(ctx, obs.SpanFetch, fs.Frag.Source)
		// One wrapper per traced scan execution, not per row.
		wire := &opIter{in: it, span: ship, fetch: fetch, st: obs.OpStats{Op: fs, Open: time.Since(shipStart)}}
		if keyed == nil {
			// A semijoin-augmented scan shows no estimate: the
			// planner estimated the original predicate, not the
			// key-bound one.
			wire.st.EstRows, wire.st.HasEst = plan.EstimateRows(fs), true
		}
		it = wire
	}
	if fs.Pos == nil {
		return it, nil
	}
	f := &fragIter{ctx: ctx, fs: fs, in: it}
	if fs.Out != nil {
		f.scratch = make(types.Row, len(fs.Cols))
	}
	return f, nil
}

// fragIter is the mediator's half of a fragment scan. Of each row the
// source returns it fills the fetched layout — every column read at its
// position in the source's row or taken from the fragment's constants,
// translated to the global representation and coerced to the global
// kind, and an aggregating scan's aggregates mapped up after its keys —
// evaluates the filter the source was not asked, and emits the output
// columns. A row is built once, in the storage it is emitted in;
// one the filter rejects gives that storage back. A scan with none of
// this to do hands the source's rows on without one.
type fragIter struct {
	ctx context.Context
	fs  *plan.FragScan
	in  source.RowIter

	// scratch is set when the scan has an Out: every row is translated
	// into it, and the ones that pass are projected out of it.
	scratch types.Row
	slab    types.RowSlab
}

func (f *fragIter) Next() (types.Row, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		r, err := f.in.Next()
		if err != nil {
			return nil, err
		}
		row, cut := f.scratch, f.scratch != nil
		if !cut {
			row = f.slab.Next(len(f.fs.Pos) + len(f.fs.Aggs))
		}
		if err := f.fs.Frag.TranslateInto(row, f.fs.GlobalSchema, f.fs.Cols, f.fs.Pos, r); err != nil {
			return nil, err
		}
		for i, a := range f.fs.Aggs {
			row[len(f.fs.Pos)+i] = a.Value(r)
		}
		if f.fs.GlobalResidual != nil {
			ok, err := expr.EvalBool(f.fs.GlobalResidual, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				if !cut {
					f.slab.Undo(row)
				}
				continue
			}
		}
		if !cut {
			return row, nil
		}
		out := f.slab.Next(len(f.fs.Out))
		for i, c := range f.fs.Out {
			out[i] = row[c]
		}
		return out, nil
	}
}

// Use implements source.Hinted: the scan's rows are one row lent, or
// carved from one block (one its filter rejects gives its storage back);
// the source's, which it told Lent, are not kept.
func (f *fragIter) Use(n int) { f.slab.Use(n) }

func (f *fragIter) Close() error { return f.in.Close() }

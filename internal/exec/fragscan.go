package exec

import (
	"context"
	"fmt"
	"io"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// runFragScan executes one fragment scan: ship the (possibly augmented)
// query, and do the mediator's half — translate, filter, project — over
// what comes back. extraRemoteFilter is an additional predicate over the
// remote table schema injected by the semijoin strategy; it must satisfy
// the source's capabilities.
//
// lent is what the scan's consumer said (runNode). A scan that builds
// its rows is done with the source's row once it has, so it asks the
// source for lent rows and lends its own iff its consumer asked; one
// that hands the source's rows on — nothing to translate, filter or
// project, or a pushed aggregation, whose output is final — asks the
// source what it was asked.
func runFragScan(ctx context.Context, fs *plan.FragScan, extraRemoteFilter expr.Expr, lent bool) (source.RowIter, error) {
	q := fs.Query
	if extraRemoteFilter != nil {
		cp := *fs.Query
		cp.Filter = expr.Conjoin([]expr.Expr{cp.Filter, extraRemoteFilter})
		q = &cp
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
	// The tenant's byte quota is charged only where there is one.
	sess := admission.SessionFrom(ctx)
	if !sess.Metered() {
		sess = nil
	}
	// The source's rows are the scan's when its query aggregates, and
	// when every fetched column is a plain copy sitting where the output
	// wants it and nothing is kept to filter.
	var (
		pos         []int
		cut, builds bool
	)
	if !q.HasAggregation() {
		pos = fs.Frag.RowPositions(fs.Cols, q.Columns != nil)
		cut = !identityProjection(fs.Out, len(fs.Cols))
		width := len(q.Columns)
		if q.Columns == nil {
			width = fs.Frag.Info().Schema.Len()
		}
		builds = cut || fs.GlobalResidual != nil || fs.Frag.NeedsTranslation(fs.Cols) || !identityProjection(pos, width)
	}
	if builds || lent {
		source.Lend(it)
	}
	if ship != nil {
		_, fetch := obs.StartSpan(ctx, obs.SpanFetch, fs.Frag.Source)
		// One wrapper per traced scan execution, not per row.
		wire := &opIter{in: it, span: ship, fetch: fetch, st: obs.OpStats{Op: fs, Open: time.Since(shipStart)}}
		if extraRemoteFilter == nil {
			// A semijoin-augmented scan shows no estimate: the
			// planner estimated the original predicate, not the
			// key-bound one.
			wire.st.EstRows, wire.st.HasEst = plan.EstimateRows(fs), true
		}
		it = wire
	}
	if !builds && sess == nil {
		return it, nil
	}
	f := &fragIter{ctx: ctx, fs: fs, in: it, builds: builds, pos: pos, slab: slabFor(lent), sess: sess}
	if cut {
		f.scratch = make(types.Row, len(fs.Cols))
	}
	return f, nil
}

// identityProjection reports whether out keeps a row of the given width
// as it is: column i at position i, every column.
func identityProjection(out []int, width int) bool {
	if len(out) != width {
		return false
	}
	for i, c := range out {
		if c != i {
			return false
		}
	}
	return true
}

// acctFlushBytes batches quota accounting: the tenant account lags the
// true stream size by at most this much per fragment, in exchange for
// one atomic update per chunk instead of two per row.
const acctFlushBytes = 32 << 10

// fragIter is the mediator's half of a fragment scan. Of each row the
// source returns it fills the fetched layout — every column read at its
// position in the source's row or taken from the fragment's constants,
// translated to the global representation and coerced to the global
// kind — evaluates the filter the source was not asked, and emits the
// output columns. A row is built once, in the storage it is emitted in;
// one the filter rejects gives that storage back. A scan with none of
// this to do (builds false) hands the source's rows on.
//
// It also charges what the source returned to the tenant's byte quota,
// when the session has one (sess is nil otherwise, and nobody pays
// Row.EstimatedSize per row).
type fragIter struct {
	ctx context.Context
	fs  *plan.FragScan
	in  source.RowIter

	builds bool
	// pos[i] is where fetched column i sits in the source's row,
	// negative for a constant of the fragment.
	pos []int
	// scratch is set when Out is not the whole fetched layout in place:
	// every row is translated into it, and the ones that pass are
	// projected out of it.
	scratch types.Row
	slab    types.RowSlab

	sess *admission.Session
	acct int64
}

func (f *fragIter) Next() (types.Row, error) {
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		r, err := f.in.Next()
		if err != nil {
			if err == io.EOF {
				_ = f.settle() // the stream is over; nothing to abort
			}
			return nil, err
		}
		if f.sess != nil {
			if f.acct += int64(r.EstimatedSize()); f.acct >= acctFlushBytes {
				// An error here says the tenant blew its memory quota
				// and this session was (or already had been) chosen as
				// the victim.
				if err := f.settle(); err != nil {
					return nil, err
				}
			}
		}
		if !f.builds {
			return r, nil
		}
		row, cut := f.scratch, f.scratch != nil
		if !cut {
			row = f.slab.Next(len(f.pos))
		}
		if err := f.fs.Frag.TranslateInto(row, f.fs.GlobalSchema, f.fs.Cols, f.pos, r); err != nil {
			return nil, err
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

// settle charges what has accrued since the last charge.
func (f *fragIter) settle() error {
	charge := f.acct
	f.acct = 0
	if charge == 0 {
		return nil
	}
	return f.sess.AddBytes(charge)
}

func (f *fragIter) Close() error {
	err := f.in.Close()
	_ = f.settle() // the stream is over; nothing to abort
	return err
}

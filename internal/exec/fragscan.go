package exec

import (
	"context"
	"fmt"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/types"
)

// runFragScan executes one fragment scan: ship the (possibly augmented)
// query, compensate, translate, filter, project. extraRemoteFilter is an
// additional predicate over the remote table schema injected by the
// semijoin strategy; it must satisfy the source's capabilities.
//
// lent is what the scan's consumer said (runNode). The chain is decided
// from the consumer down: a stage that builds a row lends it iff the
// stage above asked, and asks the one below for lent rows; a filter and
// the fetch wrappers pass the request on, and the source hears it last.
func runFragScan(ctx context.Context, fs *plan.FragScan, extraRemoteFilter expr.Expr, lent bool) (source.RowIter, error) {
	q := fs.Query
	if extraRemoteFilter != nil {
		cp := *fs.Query
		cp.Filter = expr.Conjoin([]expr.Expr{cp.Filter, extraRemoteFilter})
		q = &cp
	}
	var ship *obs.Span
	if obs.Enabled(ctx) {
		ctx, ship = obs.StartSpan(ctx, obs.SpanShip, fs.Frag.Source+"."+fs.Frag.RemoteTable)
		ship.SetAttr("source", fs.Frag.Source)
		ship.SetAttr("sql", q.String())
	}
	shipStart := time.Now()
	remote, err := fs.Src.Execute(ctx, q)
	if err != nil {
		ship.SetAttr("error", err.Error())
		ship.End()
		return nil, fmt.Errorf("exec: fragment %s.%s: %w", fs.Frag.Source, fs.Frag.RemoteTable, err)
	}
	// What each stage that builds a row is asked, from the consumer
	// down: the output projection, the translation (which on its fast
	// path passes rows through), the residual projection, the source.
	// A pushed aggregation's rows reach the consumer as the source
	// made them.
	aggregated := q.HasAggregation()
	outProject := !identityProjection(fs.Out, len(fs.Cols))
	translates := fs.Frag.NeedsTranslation(fs.Cols)
	lendTranslated := lent || outProject
	lendProjected := lendTranslated || translates
	lendRemote := lendProjected || fs.Residual.Project != nil
	if aggregated {
		lendRemote = lent
	}
	if lendRemote {
		source.Lend(remote)
	}
	var it source.RowIter = &fetchIter{in: remote, shipStart: shipStart, sess: admission.SessionFrom(ctx)}
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
	if aggregated {
		// Pushed aggregation: the remote output is already final.
		return it, nil
	}

	// Remote-space compensation for what the source could not filter
	// or project.
	if fs.Residual.Filter != nil {
		it = &filterIter{ctx: ctx, in: it, pred: fs.Residual.Filter}
	}
	if fs.Residual.Project != nil {
		it = &colProjectIter{in: it, cols: fs.Residual.Project, slab: slabFor(lendProjected)}
	}

	// Translate remote rows to the fetched global layout.
	it = &translateIter{fs: fs, in: it, translates: translates, slab: slabFor(lendTranslated)}

	if fs.GlobalResidual != nil {
		it = &filterIter{ctx: ctx, in: it, pred: fs.GlobalResidual}
	}

	// Project the fetched layout down to the output columns unless it
	// is already exact.
	if outProject {
		it = &colProjectIter{in: it, cols: fs.Out, slab: slabFor(lent)}
	}
	return it, nil
}

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

// colProjectIter projects rows by column position.
type colProjectIter struct {
	in   source.RowIter
	cols []int
	slab types.RowSlab
}

func (p *colProjectIter) Next() (types.Row, error) {
	r, err := p.in.Next()
	if err != nil {
		return nil, err
	}
	out := p.slab.Next(len(p.cols))
	for i, c := range p.cols {
		if c < 0 || c >= len(r) {
			return nil, fmt.Errorf("exec: projection column %d out of range (row width %d)", c, len(r))
		}
		out[i] = r[c]
	}
	return out, nil
}

func (p *colProjectIter) Close() error { return p.in.Close() }

// translateIter converts remote representation rows to the global one.
type translateIter struct {
	fs *plan.FragScan
	in source.RowIter
	// translates: some fetched column has a non-identity mapping.
	translates bool
	// fast is set when no value translation is needed and the remote
	// row already matches the fetched layout.
	checked bool
	fast    bool
	slab    types.RowSlab
}

func (t *translateIter) Next() (types.Row, error) {
	r, err := t.in.Next()
	if err != nil {
		return nil, err
	}
	if !t.checked {
		t.checked = true
		t.fast = !t.translates && len(r) == len(t.fs.Cols)
	}
	if t.fast {
		return r, nil
	}
	out := t.slab.Next(len(t.fs.Cols))
	if err := t.fs.Frag.TranslateInto(out, t.fs.GlobalSchema, t.fs.Cols, r); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *translateIter) Close() error { return t.in.Close() }

package core

import (
	"context"
	"fmt"
	"slices"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
)

// execStmt routes a write statement.
func (e *Engine) execStmt(ctx context.Context, stmt sql.Statement) (int64, error) {
	var name string
	switch stmt.(type) {
	case *sql.InsertStmt:
		name = "insert"
	case *sql.UpdateStmt:
		name = "update"
	case *sql.DeleteStmt:
		name = "delete"
	default:
		// Non-writes fall through to the dispatch switch's error.
	}
	var span *obs.Span
	if name != "" {
		ctx, span = obs.StartSpan(ctx, obs.SpanWrite, name)
		defer span.End()
	}
	var n int64
	var err error
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		n, err = e.execInsert(ctx, s)
	case *sql.UpdateStmt:
		n, err = e.execUpdate(ctx, s)
	case *sql.DeleteStmt:
		n, err = e.execDelete(ctx, s)
	case *sql.SelectStmt:
		return 0, fmt.Errorf("core: Exec requires a write statement; use Query for SELECT")
	default:
		return 0, fmt.Errorf("core: unsupported statement %T", stmt)
	}
	if err == nil {
		span.SetInt("affected", n)
	}
	return n, err
}

// fragWrite batches the per-fragment work of one global write.
type fragWrite struct {
	frag *catalog.Fragment
	rows []types.Row // inserts (remote representation)
}

// execInsert evaluates the literal rows, routes each to the fragment
// whose partition predicate accepts it, translates to the remote
// representation, and writes — under 2PC when several sources are hit.
func (e *Engine) execInsert(ctx context.Context, ins *sql.InsertStmt) (int64, error) {
	tab, err := e.cat.Table(ins.Table)
	if err != nil {
		return 0, err
	}
	if len(tab.Fragments) == 0 {
		return 0, fmt.Errorf("core: global table %q has no fragments", ins.Table)
	}
	// Resolve the column list.
	colIdx := make([]int, 0, tab.Schema.Len())
	if len(ins.Columns) == 0 {
		for i := 0; i < tab.Schema.Len(); i++ {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range ins.Columns {
			i, err := tab.Schema.IndexOf("", name)
			if err != nil {
				return 0, err
			}
			colIdx = append(colIdx, i)
		}
	}
	writes := map[*catalog.Fragment]*fragWrite{}
	for ri, exprRow := range ins.Rows {
		if len(exprRow) != len(colIdx) {
			return 0, fmt.Errorf("core: INSERT row %d has %d values, expected %d", ri+1, len(exprRow), len(colIdx))
		}
		// Evaluate to a full global row (unnamed columns get NULL).
		global := make(types.Row, tab.Schema.Len())
		for i := range global {
			global[i] = types.Null
		}
		for i, ex := range exprRow {
			bound, err := expr.Bind(ex, &types.Schema{})
			if err != nil {
				return 0, fmt.Errorf("core: INSERT row %d: %w", ri+1, err)
			}
			v, err := bound.Eval(nil)
			if err != nil {
				return 0, fmt.Errorf("core: INSERT row %d: %w", ri+1, err)
			}
			target := tab.Schema.Columns[colIdx[i]]
			if !v.IsNull() && v.Kind() != target.Type {
				v, err = v.Coerce(target.Type)
				if err != nil {
					return 0, fmt.Errorf("core: INSERT row %d column %s: %w", ri+1, target.Name, err)
				}
			}
			global[colIdx[i]] = v
		}
		frag, err := routeRow(tab, global)
		if err != nil {
			return 0, fmt.Errorf("core: INSERT row %d: %w", ri+1, err)
		}
		remote, err := toRemoteRow(frag, tab, global)
		if err != nil {
			return 0, fmt.Errorf("core: INSERT row %d: %w", ri+1, err)
		}
		w := writes[frag]
		if w == nil {
			w = &fragWrite{frag: frag}
			writes[frag] = w
		}
		w.rows = append(w.rows, remote)
	}
	return e.applyWrites(ctx, writes, func(ctx context.Context, w source.Writer, fw *fragWrite) (int64, error) {
		return w.Insert(ctx, fw.frag.RemoteTable, fw.rows)
	})
}

// routeRow picks the single fragment whose partition predicate accepts
// the row. Tables without partition predicates must have exactly one
// fragment to accept inserts.
func routeRow(tab *catalog.GlobalTable, row types.Row) (*catalog.Fragment, error) {
	var match *catalog.Fragment
	anyPredicate := false
	for _, f := range tab.Fragments {
		if f.Where == nil {
			continue
		}
		anyPredicate = true
		ok, err := expr.EvalBool(f.Where, row)
		if err != nil {
			return nil, err
		}
		if ok {
			if match != nil {
				return nil, fmt.Errorf("row matches the partition predicates of both %s.%s and %s.%s",
					match.Source, match.RemoteTable, f.Source, f.RemoteTable)
			}
			match = f
		}
	}
	if match != nil {
		return match, nil
	}
	if anyPredicate {
		return nil, fmt.Errorf("row matches no fragment's partition predicate")
	}
	if len(tab.Fragments) == 1 {
		return tab.Fragments[0], nil
	}
	return nil, fmt.Errorf("table has %d fragments without partition predicates; INSERT target is ambiguous", len(tab.Fragments))
}

// toRemoteRow converts a global row into the fragment's remote layout.
func toRemoteRow(frag *catalog.Fragment, tab *catalog.GlobalTable, global types.Row) (types.Row, error) {
	info := frag.Info()
	remote := make(types.Row, info.Schema.Len())
	for i := range remote {
		remote[i] = types.Null
	}
	for g, m := range frag.Columns {
		gv := global[g]
		if m.Const != nil {
			// Constant-mapped columns are not stored; reject values that
			// contradict the mapping (they would silently change on
			// read-back).
			if !gv.IsNull() && !gv.Equal(*m.Const) {
				return nil, fmt.Errorf("column %s is fixed to %s by the fragment mapping; cannot store %s",
					tab.Schema.Columns[g].Name, m.Const.String(), gv.String())
			}
			continue
		}
		if m.RemoteCol < 0 {
			continue
		}
		if gv.IsNull() {
			continue
		}
		rv, ok := m.ToRemote(gv)
		if !ok {
			return nil, fmt.Errorf("column %s: value %s is not representable at %s.%s",
				tab.Schema.Columns[g].Name, gv.String(), frag.Source, frag.RemoteTable)
		}
		// Coerce to the remote column type.
		rt := info.Schema.Columns[m.RemoteCol].Type
		if !rv.IsNull() && rv.Kind() != rt {
			var err error
			rv, err = rv.Coerce(rt)
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", tab.Schema.Columns[g].Name, err)
			}
		}
		remote[m.RemoteCol] = rv
	}
	return remote, nil
}

// execUpdate translates the statement per fragment and applies it.
func (e *Engine) execUpdate(ctx context.Context, upd *sql.UpdateStmt) (int64, error) {
	tab, err := e.cat.Table(upd.Table)
	if err != nil {
		return 0, err
	}
	filter, err := e.bindWriteFilter(ctx, upd.Where, tab)
	if err != nil {
		return 0, err
	}
	// Bind SET values over the global schema.
	type setClause struct {
		col   int
		value expr.Expr
	}
	sets := make([]setClause, len(upd.Set))
	for i, a := range upd.Set {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		col, err := tab.Schema.IndexOf("", a.Column)
		if err != nil {
			return 0, err
		}
		bound, err := expr.Bind(a.Value, tab.Schema)
		if err != nil {
			return 0, err
		}
		bound, err = e.substituteSubqueries(ctx, bound)
		if err != nil {
			return 0, err
		}
		sets[i] = setClause{col: col, value: expr.FoldConstants(bound)}
	}

	writes := map[*catalog.Fragment]*fragWrite{}
	translated := map[*catalog.Fragment]struct {
		filter expr.Expr
		set    []source.SetClause
	}{}
	for _, frag := range tab.Fragments {
		if frag.PruneByPartition(filter) {
			continue
		}
		remoteFilter, residual := frag.SplitFilter(filter)
		if residual != nil {
			return 0, fmt.Errorf("core: UPDATE predicate %s is not expressible at %s.%s",
				residual, frag.Source, frag.RemoteTable)
		}
		rset := make([]source.SetClause, len(sets))
		for i, sc := range sets {
			m := frag.Columns[sc.col]
			if m.Const != nil {
				return 0, fmt.Errorf("core: column %s is constant-mapped at %s.%s and cannot be updated",
					tab.Schema.Columns[sc.col].Name, frag.Source, frag.RemoteTable)
			}
			rv, ok := frag.TranslateValue(sc.value, sc.col)
			if !ok {
				return 0, fmt.Errorf("core: UPDATE value %s is not translatable for %s.%s",
					sc.value, frag.Source, frag.RemoteTable)
			}
			rset[i] = source.SetClause{Col: m.RemoteCol, Value: rv}
		}
		writes[frag] = &fragWrite{frag: frag}
		translated[frag] = struct {
			filter expr.Expr
			set    []source.SetClause
		}{remoteFilter, rset}
	}
	return e.applyWrites(ctx, writes, func(ctx context.Context, w source.Writer, fw *fragWrite) (int64, error) {
		t := translated[fw.frag]
		return w.Update(ctx, fw.frag.RemoteTable, t.filter, t.set)
	})
}

// execDelete translates the statement per fragment and applies it.
func (e *Engine) execDelete(ctx context.Context, del *sql.DeleteStmt) (int64, error) {
	tab, err := e.cat.Table(del.Table)
	if err != nil {
		return 0, err
	}
	filter, err := e.bindWriteFilter(ctx, del.Where, tab)
	if err != nil {
		return 0, err
	}
	writes := map[*catalog.Fragment]*fragWrite{}
	filters := map[*catalog.Fragment]expr.Expr{}
	for _, frag := range tab.Fragments {
		if frag.PruneByPartition(filter) {
			continue
		}
		remoteFilter, residual := frag.SplitFilter(filter)
		if residual != nil {
			return 0, fmt.Errorf("core: DELETE predicate %s is not expressible at %s.%s",
				residual, frag.Source, frag.RemoteTable)
		}
		writes[frag] = &fragWrite{frag: frag}
		filters[frag] = remoteFilter
	}
	return e.applyWrites(ctx, writes, func(ctx context.Context, w source.Writer, fw *fragWrite) (int64, error) {
		return w.Delete(ctx, fw.frag.RemoteTable, filters[fw.frag])
	})
}

// bindWriteFilter binds (and de-subqueries) a write statement's WHERE.
func (e *Engine) bindWriteFilter(ctx context.Context, where expr.Expr, tab *catalog.GlobalTable) (expr.Expr, error) {
	if where == nil {
		return nil, nil
	}
	bound, err := expr.Bind(where, tab.Schema)
	if err != nil {
		return nil, err
	}
	bound, err = e.substituteSubqueries(ctx, bound)
	if err != nil {
		return nil, err
	}
	return expr.FoldConstants(bound), nil
}

// applyWrites drives the per-fragment writes: direct autocommit for a
// single source, two-phase commit across several.
func (e *Engine) applyWrites(ctx context.Context, writes map[*catalog.Fragment]*fragWrite,
	apply func(context.Context, source.Writer, *fragWrite) (int64, error)) (int64, error) {

	if len(writes) == 0 {
		return 0, nil
	}
	// Group by source (several fragments can live on one source).
	bySource := map[string][]*fragWrite{}
	for _, fw := range writes {
		bySource[fw.frag.Source] = append(bySource[fw.frag.Source], fw)
	}

	if len(bySource) == 1 {
		// Single participant: autocommit through the source's writer.
		var total int64
		for name, fws := range bySource {
			src, err := e.cat.Source(name)
			if err != nil {
				return 0, err
			}
			w, ok := src.(source.Writer)
			if !ok {
				return 0, fmt.Errorf("core: source %s is not writable", name)
			}
			for _, fw := range fws {
				n, err := apply(ctx, w, fw)
				total += n
				if err != nil {
					return total, err
				}
			}
		}
		return total, nil
	}

	// Multiple participants: two-phase commit, the participants taken in
	// name order. A participant's store is locked from its first write to
	// commit, so two global updates that took theirs in different orders
	// would each hold what the other waits for; one global order is the
	// whole deadlock-avoidance argument. It also makes 2PC traces and the
	// decision log repeatable.
	names := make([]string, 0, len(bySource))
	for name := range bySource {
		names = append(names, name)
	}
	slices.Sort(names)
	g := e.coord.Begin()
	var total int64
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			_ = g.Abort(ctx) // best-effort rollback; the original error wins
			return 0, err
		}
		src, err := e.cat.Source(name)
		if err != nil {
			_ = g.Abort(ctx) // best-effort rollback; the original error wins
			return 0, err
		}
		t, ok := src.(source.Transactional)
		if !ok {
			_ = g.Abort(ctx) // best-effort rollback; the original error wins
			return 0, fmt.Errorf("core: source %s cannot participate in a multi-source write (no transaction support)", name)
		}
		tx, err := t.BeginTx(ctx)
		if err != nil {
			_ = g.Abort(ctx) // best-effort rollback; the original error wins
			return 0, err
		}
		if err := g.Enlist(name, tx); err != nil {
			_ = tx.Abort(ctx) // best-effort rollback; the original error wins
			_ = g.Abort(ctx)  // best-effort rollback; the original error wins
			return 0, err
		}
		for _, fw := range bySource[name] {
			if err := ctx.Err(); err != nil {
				_ = g.Abort(ctx) // best-effort rollback; the original error wins
				return 0, err
			}
			n, err := apply(ctx, tx, fw)
			total += n
			if err != nil {
				_ = g.Abort(ctx) // best-effort rollback; the original error wins
				return 0, err
			}
		}
	}
	if err := g.Commit(ctx); err != nil {
		return 0, err
	}
	return total, nil
}

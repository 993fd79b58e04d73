package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/txn"
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

// fragWrite is one fragment's share of a global write, in the remote
// representation: rows for an INSERT, a filter and a SET list for an
// UPDATE, a filter alone for a DELETE (a nil filter matches every row).
type fragWrite struct {
	frag   *catalog.Fragment
	op     writeOp
	rows   []types.Row
	filter expr.Expr
	set    []source.SetClause
}

type writeOp uint8

const (
	opInsert writeOp = iota
	opUpdate
	opDelete
)

// apply performs the write through w: the source itself (autocommit) or
// a transaction on it.
func (fw *fragWrite) apply(ctx context.Context, w source.Writer) (int64, error) {
	switch fw.op {
	case opInsert:
		return w.Insert(ctx, fw.frag.RemoteTable, fw.rows)
	case opUpdate:
		return w.Update(ctx, fw.frag.RemoteTable, fw.filter, fw.set)
	case opDelete:
		return w.Delete(ctx, fw.frag.RemoteTable, fw.filter)
	}
	return 0, fmt.Errorf("core: unknown write operation %d", fw.op)
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
	var writes []fragWrite
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
		i := slices.IndexFunc(writes, func(w fragWrite) bool { return w.frag == frag })
		if i < 0 {
			i = len(writes)
			writes = append(writes, fragWrite{frag: frag, op: opInsert})
		}
		writes[i].rows = append(writes[i].rows, remote)
	}
	// Catalog order, however the rows arrived.
	slices.SortFunc(writes, func(a, b fragWrite) int {
		return cmp.Compare(slices.Index(tab.Fragments, a.frag), slices.Index(tab.Fragments, b.frag))
	})
	return e.applyWrites(ctx, writes)
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

	var writes []fragWrite
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
		writes = append(writes, fragWrite{frag: frag, op: opUpdate, filter: remoteFilter, set: rset})
	}
	return e.applyWrites(ctx, writes)
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
	var writes []fragWrite
	for _, frag := range tab.Fragments {
		if frag.PruneByPartition(filter) {
			continue
		}
		remoteFilter, residual := frag.SplitFilter(filter)
		if residual != nil {
			return 0, fmt.Errorf("core: DELETE predicate %s is not expressible at %s.%s",
				residual, frag.Source, frag.RemoteTable)
		}
		writes = append(writes, fragWrite{frag: frag, op: opDelete, filter: remoteFilter})
	}
	return e.applyWrites(ctx, writes)
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

// applyWrites performs the fragment writes of one statement, given in
// catalog fragment order. One write is one autocommit call. Several run
// under the coordinator, one transaction per source — also when the
// source is one, so that the statement is atomic within a participant as
// it is across them. One source that offers no transaction takes them
// one autocommit call after another in catalog order: what a failure
// leaves behind is then at least the same every time, which is all an
// autonomous component without transactions allows. What a source
// offers is what it advertises (writeFacets).
func (e *Engine) applyWrites(ctx context.Context, writes []fragWrite) (int64, error) {
	if len(writes) == 0 {
		return 0, nil
	}
	// Participants in name order, each one's writes still in catalog
	// order. A participant's store is locked from its first write to
	// commit, so two global updates that took theirs in different orders
	// would each hold what the other waits for; one global order is the
	// whole deadlock-avoidance argument. It also makes 2PC traces and the
	// decision log repeatable.
	slices.SortStableFunc(writes, func(a, b fragWrite) int { return cmp.Compare(a.frag.Source, b.frag.Source) })

	if name := writes[0].frag.Source; name == writes[len(writes)-1].frag.Source {
		src, err := e.cat.Source(name)
		if err != nil {
			return 0, err
		}
		w, t, err := writeFacets(src)
		if err != nil {
			return 0, err
		}
		if len(writes) == 1 || t == nil {
			return applyAll(ctx, w, writes)
		}
	}

	g := e.coord.Begin()
	total, err := e.enlistAndApply(ctx, g, writes)
	if err != nil {
		_ = g.Abort(ctx) // best-effort rollback; the original error wins
		return 0, err
	}
	if err := g.Commit(ctx); err != nil {
		return 0, err
	}
	return total, nil
}

// writeFacets returns the write facets src's capability vector says it
// has: the autocommit writer, and the transactional facet or nil. The
// vector decides and not the Go type, because a wire client and a
// resilience guard implement every facet whatever they front; this is
// the only reader of Capabilities.Write and .Txn. A source that does not
// say Write is refused, and so is one that says more than it implements.
func writeFacets(src source.Source) (source.Writer, source.Transactional, error) {
	caps := src.Capabilities()
	w, isWriter := src.(source.Writer)
	t, isTxn := src.(source.Transactional)
	switch {
	case !caps.Write:
		return nil, nil, fmt.Errorf("core: source %s is not writable", src.Name())
	case !isWriter, caps.Txn && !isTxn:
		return nil, nil, fmt.Errorf("core: source %s advertises %s and implements less", src.Name(), caps)
	case !caps.Txn:
		t = nil
	}
	return w, t, nil
}

// enlistAndApply takes writes' sources in turn: a transaction is begun
// on the source, enlisted in g, and given that source's writes. On an
// error the caller aborts g, and with it every transaction enlisted.
func (e *Engine) enlistAndApply(ctx context.Context, g *txn.GlobalTx, writes []fragWrite) (int64, error) {
	var total int64
	for len(writes) > 0 {
		name := writes[0].frag.Source
		n := 1
		for n < len(writes) && writes[n].frag.Source == name {
			n++
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		src, err := e.cat.Source(name)
		if err != nil {
			return 0, err
		}
		_, t, err := writeFacets(src)
		if err != nil {
			return 0, err
		}
		if t == nil {
			return 0, fmt.Errorf("core: source %s cannot participate in a multi-source write (no transaction support)", name)
		}
		tx, err := t.BeginTx(ctx)
		if err != nil {
			return 0, err
		}
		if err := g.Enlist(name, tx); err != nil {
			_ = tx.Abort(ctx) // not enlisted, so not covered by the caller's abort
			return 0, err
		}
		affected, err := applyAll(ctx, tx, writes[:n])
		if err != nil {
			return 0, err
		}
		total += affected
		writes = writes[n:]
	}
	return total, nil
}

// applyAll performs one participant's writes in order through w and
// stops at the first error, returning the rows affected until then: an
// autocommitting source keeps them, a transaction's caller aborts.
func applyAll(ctx context.Context, w source.Writer, writes []fragWrite) (int64, error) {
	var total int64
	for i := range writes {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		n, err := writes[i].apply(ctx, w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

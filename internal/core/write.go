package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"gis/internal/catalog"
	"gis/internal/exec"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/txn"
	"gis/internal/types"
)

// writeStmt is what the write path reads of a statement.
type writeStmt struct {
	op    writeOp
	table string
	ins   *sql.InsertStmt  // INSERT
	where expr.Expr        // UPDATE, DELETE
	set   []sql.Assignment // UPDATE
}

// execStmt runs a write statement: buildWrites turns it into fragment
// writes, and applyWrites commits them.
func (e *Engine) execStmt(ctx context.Context, stmt sql.Statement) (int64, error) {
	var w writeStmt
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		w = writeStmt{op: opInsert, table: s.Table, ins: s}
	case *sql.UpdateStmt:
		w = writeStmt{op: opUpdate, table: s.Table, where: s.Where, set: s.Set}
	case *sql.DeleteStmt:
		w = writeStmt{op: opDelete, table: s.Table, where: s.Where}
	default:
		return 0, fmt.Errorf("core: Exec runs INSERT, UPDATE and DELETE (use Query for SELECT), not %T", stmt)
	}
	ctx, span := obs.StartSpan(ctx, obs.SpanWrite, w.op.String())
	defer span.End()
	writes, moved, err := e.buildWrites(ctx, &w)
	if err != nil {
		return 0, err
	}
	n, err := e.applyWrites(ctx, writes, moved)
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

func (op writeOp) String() string { return [...]string{"insert", "update", "delete"}[op] }

// apply performs the write through w: the source itself (autocommit) or
// a transaction on it.
func (fw *fragWrite) apply(ctx context.Context, w source.Writer) (int64, error) {
	switch fw.op {
	case opInsert:
		return w.Insert(ctx, fw.frag.RemoteTable, fw.rows)
	case opUpdate:
		return w.Update(ctx, fw.frag.RemoteTable, fw.filter, fw.set)
	default:
		return w.Delete(ctx, fw.frag.RemoteTable, fw.filter)
	}
}

// setClause is one bound assignment to a global column: an UPDATE's SET,
// or an INSERT's value for a column it names.
type setClause struct {
	col   int
	value expr.Expr
}

// buildWrites is the write path's one builder. It returns the
// statement's fragment writes in catalog order and, for an UPDATE that
// moves rows between fragments (movesRows), the number of rows moved;
// else -1.
func (e *Engine) buildWrites(ctx context.Context, w *writeStmt) ([]fragWrite, int64, error) {
	tab, err := e.cat.Table(w.table)
	if err != nil {
		return nil, -1, err
	}
	if w.op == opInsert {
		writes, err := insertWrites(tab, w.ins)
		return writes, -1, err
	}
	filter, err := e.bindWriteExpr(ctx, w.where, tab)
	if err != nil {
		return nil, -1, err
	}
	sets := make([]setClause, len(w.set))
	for i, a := range w.set {
		if err := ctx.Err(); err != nil {
			return nil, -1, err
		}
		if sets[i].col, err = tab.Schema.IndexOf("", a.Column); err != nil {
			return nil, -1, err
		}
		if sets[i].value, err = e.bindWriteExpr(ctx, a.Value, tab); err != nil {
			return nil, -1, err
		}
	}
	if movesRows(tab, sets) {
		return e.moveWrites(ctx, tab, filter, sets)
	}
	writes, err := fragmentWrites(tab, w.op, filter, sets)
	return writes, -1, err
}

// bindWriteExpr binds (and de-subqueries) a write statement's WHERE or
// SET value over the global schema.
func (e *Engine) bindWriteExpr(ctx context.Context, ex expr.Expr, tab *catalog.GlobalTable) (expr.Expr, error) {
	if ex == nil {
		return nil, nil
	}
	bound, err := expr.Bind(ex, tab.Schema)
	if err == nil {
		bound, err = e.substituteSubqueries(ctx, bound)
	}
	if err != nil {
		return nil, err
	}
	return expr.FoldConstants(bound), nil
}

// insertWrites evaluates an INSERT's literal rows — a column it does not
// name is NULL — and routes each to its fragment.
func insertWrites(tab *catalog.GlobalTable, ins *sql.InsertStmt) ([]fragWrite, error) {
	if len(tab.Fragments) == 0 {
		return nil, fmt.Errorf("core: global table %q has no fragments", ins.Table)
	}
	var err error
	sets := make([]setClause, cmp.Or(len(ins.Columns), tab.Schema.Len()))
	for i := range sets {
		sets[i].col = i
		if len(ins.Columns) > 0 {
			if sets[i].col, err = tab.Schema.IndexOf("", ins.Columns[i]); err != nil {
				return nil, err
			}
		}
	}
	var writes []fragWrite
	for ri, exprRow := range ins.Rows {
		if len(exprRow) != len(sets) {
			return nil, fmt.Errorf("core: INSERT row %d has %d values, expected %d", ri+1, len(exprRow), len(sets))
		}
		for i, ex := range exprRow {
			if sets[i].value, err = expr.Bind(ex, &types.Schema{}); err != nil {
				break
			}
		}
		if err == nil {
			writes, err = insertRow(writes, tab, nil, sets)
		}
		if err != nil {
			return nil, fmt.Errorf("core: INSERT row %d: %w", ri+1, err)
		}
	}
	return writes, nil
}

// insertRow is the write path's one row helper. It makes a global row:
// base's values (NULLs where base is nil) except, at each clause's
// column, the clause's value over base, each value coerced to its
// column's type. It appends the row, in the remote layout, to the insert
// among inserts — one a fragment, in catalog order — of the fragment
// whose partition predicate accepts it.
func insertRow(inserts []fragWrite, tab *catalog.GlobalTable, base types.Row, sets []setClause) ([]fragWrite, error) {
	global := make(types.Row, tab.Schema.Len())
	copy(global, base)
	for _, sc := range sets {
		col := tab.Schema.Columns[sc.col]
		v, err := sc.value.Eval(base)
		if err == nil {
			v, err = source.CoerceForColumn(v, col.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", col.Name, err)
		}
		global[sc.col] = v
	}
	frag, err := routeRow(tab, global)
	if err != nil {
		return nil, err
	}
	remote, err := toRemoteRow(frag, tab, global)
	if err != nil {
		return nil, err
	}
	i, found := slices.BinarySearchFunc(inserts, slices.Index(tab.Fragments, frag), func(w fragWrite, at int) int {
		return cmp.Compare(slices.Index(tab.Fragments, w.frag), at)
	})
	if !found {
		inserts = slices.Insert(inserts, i, fragWrite{frag: frag, op: opInsert})
	}
	inserts[i].rows = append(inserts[i].rows, remote)
	return inserts, nil
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
		switch ok, err := expr.EvalBool(f.Where, row); {
		case err != nil:
			return nil, err
		case ok && match != nil:
			return nil, fmt.Errorf("row matches the partition predicates of both %s.%s and %s.%s",
				match.Source, match.RemoteTable, f.Source, f.RemoteTable)
		case ok:
			match = f
		}
	}
	switch {
	case match != nil:
		return match, nil
	case anyPredicate:
		return nil, fmt.Errorf("row matches no fragment's partition predicate")
	case len(tab.Fragments) == 1:
		return tab.Fragments[0], nil
	}
	return nil, fmt.Errorf("table has %d fragments without partition predicates; INSERT target is ambiguous", len(tab.Fragments))
}

// toRemoteRow converts a global row into the fragment's remote layout.
func toRemoteRow(frag *catalog.Fragment, tab *catalog.GlobalTable, global types.Row) (types.Row, error) {
	info := frag.Info()
	remote := make(types.Row, info.Schema.Len())
	for g, m := range frag.Columns {
		gv := global[g]
		if m.Const != nil {
			// Not stored: a value other than the constant would read back changed.
			if !gv.IsNull() && !gv.Equal(*m.Const) {
				return nil, fmt.Errorf("column %s is fixed to %s by the fragment mapping; cannot store %s",
					tab.Schema.Columns[g].Name, m.Const.String(), gv.String())
			}
			continue
		}
		if m.RemoteCol < 0 || gv.IsNull() {
			continue
		}
		rv, ok := m.ToRemote(gv)
		if !ok {
			return nil, fmt.Errorf("column %s: value %s is not representable at %s.%s",
				tab.Schema.Columns[g].Name, gv.String(), frag.Source, frag.RemoteTable)
		}
		rv, err := source.CoerceForColumn(rv, info.Schema.Columns[m.RemoteCol].Type)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", tab.Schema.Columns[g].Name, err)
		}
		remote[m.RemoteCol] = rv
	}
	return remote, nil
}

// fragmentWrites is the one per-fragment loop of UPDATE and DELETE: for
// each fragment the filter does not prune, every conjunct translated into
// the remote representation — or the statement refused, naming the first
// conjunct that has no exact remote form — and, for an UPDATE, the SET.
func fragmentWrites(tab *catalog.GlobalTable, op writeOp, filter expr.Expr, sets []setClause) ([]fragWrite, error) {
	var writes []fragWrite
	for _, frag := range tab.Fragments {
		if frag.PruneByPartition(filter) {
			continue
		}
		var buf [8]expr.Expr
		conj := expr.AppendConjuncts(buf[:0], filter)
		for i, c := range conj {
			var ok bool
			if conj[i], ok = frag.TranslateConjunct(c); !ok {
				return nil, fmt.Errorf("core: WHERE predicate %s is not expressible at %s.%s", c, frag.Source, frag.RemoteTable)
			}
		}
		fw := fragWrite{frag: frag, op: op, filter: expr.Conjoin(conj)}
		if op == opUpdate {
			fw.set = make([]source.SetClause, len(sets))
			for i, sc := range sets {
				m := frag.Columns[sc.col]
				if m.Const != nil {
					return nil, fmt.Errorf("core: column %s is constant-mapped at %s.%s and cannot be updated",
						tab.Schema.Columns[sc.col].Name, frag.Source, frag.RemoteTable)
				}
				rv, ok := frag.TranslateValue(sc.value, sc.col)
				if !ok {
					return nil, fmt.Errorf("core: UPDATE value %s is not translatable for %s.%s", sc.value, frag.Source, frag.RemoteTable)
				}
				fw.set[i] = source.SetClause{Col: m.RemoteCol, Value: rv}
			}
		}
		writes = append(writes, fw)
	}
	return writes, nil
}

// movesRows reports whether an UPDATE's SET writes a column that some
// fragment's partition predicate reads, so that a row it writes may
// belong to another fragment afterwards.
func movesRows(tab *catalog.GlobalTable, sets []setClause) (moves bool) {
	for _, f := range tab.Fragments {
		expr.Columns(f.Where, func(col int) {
			moves = moves || slices.ContainsFunc(sets, func(sc setClause) bool { return sc.col == col })
		})
	}
	return moves
}

// moveWrites builds an UPDATE that moves rows: the statement's DELETE,
// then the inserts of the new rows. It reads the rows the filter matches
// through the read path and applies the SET to each at the mediator, and
// returns the number of rows read.
func (e *Engine) moveWrites(ctx context.Context, tab *catalog.GlobalTable, filter expr.Expr, sets []setClause) ([]fragWrite, int64, error) {
	deletes, err := fragmentWrites(tab, opDelete, filter, nil)
	if err != nil {
		return nil, -1, err
	}
	p, err := plan.Optimize(ctx, &plan.GlobalScan{Table: tab, Filter: filter}, e.cat, e.opts)
	if err != nil {
		return nil, -1, err
	}
	rows, err := exec.Collect(ctx, p)
	if err != nil {
		return nil, -1, err
	}
	var inserts []fragWrite
	for _, old := range rows {
		if inserts, err = insertRow(inserts, tab, old, sets); err != nil {
			return nil, -1, fmt.Errorf("core: UPDATE of %s: %w", old, err)
		}
	}
	return append(deletes, inserts...), int64(len(rows)), nil
}

// TxnRequiredError refuses a statement that must commit as one — it
// writes several sources, or it moves rows, which a stop between delete
// and insert would lose — at a fragment whose source has no transaction.
type TxnRequiredError struct{ Source, RemoteTable string }

func (e *TxnRequiredError) Error() string {
	return fmt.Sprintf("core: the statement writes several sources or moves rows, and %s.%s offers no transaction", e.Source, e.RemoteTable)
}

// applyWrites performs the fragment writes of one statement, given in
// catalog fragment order. One write is one autocommit call. Several run
// under the coordinator, one transaction per source — also when the
// source is one, so that the statement is atomic within a participant as
// it is across them. One source that offers no transaction takes them
// one autocommit call after another in catalog order: what a failure
// leaves behind is then at least the same every time, which is all an
// autonomous component without transactions allows. A move (moved ≥ 0)
// always runs under the coordinator.
func (e *Engine) applyWrites(ctx context.Context, writes []fragWrite, moved int64) (int64, error) {
	if len(writes) == 0 {
		return 0, nil
	}
	// Participants in name order — one global order is the whole
	// deadlock-avoidance argument, since a participant's store is locked
	// from its first write to commit — each one's writes still in catalog
	// order, a move's deletes before its inserts so that a row that stays
	// in its fragment does not meet its own key.
	slices.SortStableFunc(writes, func(a, b fragWrite) int { return cmp.Compare(a.frag.Source, b.frag.Source) })
	w, t, err := e.writeFacets(writes[0].frag.Source)
	if err != nil {
		return 0, err
	}
	oneSource := writes[0].frag.Source == writes[len(writes)-1].frag.Source
	if moved < 0 && (len(writes) == 1 || oneSource && t == nil) {
		return applyAll(ctx, w, writes)
	}
	g := e.coord.Begin()
	total, err := e.enlistAndApply(ctx, g, writes, t)
	// A move's inserts put back the rows it read, all or none: deletes
	// that removed others mean a concurrent writer changed them in between,
	// and committing would lose or duplicate a row.
	if err == nil && moved >= 0 {
		if deleted := total - moved; deleted != moved {
			err = fmt.Errorf("core: UPDATE read %d rows to move and deleted %d: they changed in between", moved, deleted)
		}
		total = moved
	}
	if err != nil {
		_ = g.Abort(ctx) // best-effort rollback; the original error wins
		return 0, err
	}
	if err := g.Commit(ctx); err != nil {
		return 0, err
	}
	return total, nil
}

// writeFacets returns the write facets the named source's capability
// vector says it has: the autocommit writer, and the transactional facet
// or nil. The vector decides and not the Go type, because a wire client
// and a resilience guard implement every facet whatever they front; this
// is the only reader of Capabilities.Write and .Txn. A source that says
// Write and implements less, or does not say it, is refused.
func (e *Engine) writeFacets(name string) (source.Writer, source.Transactional, error) {
	src, err := e.cat.Source(name)
	if err != nil {
		return nil, nil, err
	}
	caps := src.Capabilities()
	w, isWriter := src.(source.Writer)
	t, isTxn := src.(source.Transactional)
	switch {
	case !caps.Write:
		return nil, nil, fmt.Errorf("core: source %s is not writable", name)
	case !isWriter, caps.Txn && !isTxn:
		return nil, nil, fmt.Errorf("core: source %s advertises %s and implements less", name, caps)
	case !caps.Txn:
		t = nil
	}
	return w, t, nil
}

// enlistAndApply takes writes' sources in turn, the first with t, the
// transactional facet its caller looked up: a transaction is begun on
// the source, enlisted in g, and given that source's writes; a source
// without one refuses the statement. On an error the caller aborts g.
func (e *Engine) enlistAndApply(ctx context.Context, g *txn.GlobalTx, writes []fragWrite, t source.Transactional) (int64, error) {
	var total int64
	for {
		frag, n := writes[0].frag, 1
		for n < len(writes) && writes[n].frag.Source == frag.Source {
			n++
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if t == nil {
			return 0, &TxnRequiredError{frag.Source, frag.RemoteTable}
		}
		tx, err := t.BeginTx(ctx)
		if err != nil {
			return 0, err
		}
		if err := g.Enlist(frag.Source, tx); err != nil {
			_ = tx.Abort(ctx) // not enlisted, so not covered by the caller's abort
			return 0, err
		}
		affected, err := applyAll(ctx, tx, writes[:n])
		if err != nil {
			return 0, err
		}
		total += affected
		if writes = writes[n:]; len(writes) == 0 {
			return total, nil
		}
		if _, t, err = e.writeFacets(writes[0].frag.Source); err != nil {
			return 0, err
		}
	}
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

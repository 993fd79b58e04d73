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

// globalWrite is a global write as buildWrite builds it and runWrite
// runs it, whether a statement cache instance keeps it or a call built it
// for itself: its op; scan, the table written and, for an UPDATE or a
// DELETE, its WHERE bound over the table's global schema; sets, an
// INSERT's rows as insertSets bound them, width clauses a row, or an
// UPDATE's bound SET; and, for an UPDATE or a DELETE that moves no row,
// writes, its fragment writes. An INSERT's rows are routed, and a move's
// rows read, when it runs.
type globalWrite struct {
	op     writeOp
	moves  bool // an UPDATE of a column that decides a row's fragment (movesRows)
	scan   plan.GlobalScan
	sets   []source.SetClause
	width  int
	writes []fragWrite
}

// execStmt runs a write statement: the write its statement cache hit
// bound, or the one buildWrite makes of it, its subqueries materialized
// as a SELECT's are; runWrite runs either. st.in, when set on a miss, is
// the instance the statement's parameters were read into, which keeps
// the write when a later call may bind its values into it (keep); a
// template the cache does not hold yet, whose first instance it is, is
// kept under st.text, without a write the verdict that the text is built
// on every call.
func (e *Engine) execStmt(ctx context.Context, st statement) (int64, error) {
	var built globalWrite
	w := &built
	if st.stmt == nil {
		if st.in.plan != nil {
			return 0, errNotWrite((*sql.SelectStmt)(nil))
		}
		w = &st.in.write
	} else {
		keepable := st.in != nil && !holdsSubquery(st.stmt) // materialized, its rows would read as constants
		if err := e.materializeSubqueries(ctx, st.stmt); err != nil {
			return 0, err
		}
		if err := e.buildWrite(ctx, st.stmt, w); err != nil {
			return 0, err
		}
		if keepable {
			st.in.keep(w)
		}
		if st.in != nil && st.in == &st.in.t.first {
			e.stmts.put(st.text, st.in.t)
		}
	}
	return e.runWrite(ctx, w)
}

// runWrite is the write path's one runner, for a kept write and one
// built for the call alike. Under a write span named by its op, it routes
// an INSERT's rows (insertWrites) or reads and moves a move's
// (moveWrites), commits the fragment writes (applyWrites), and records
// the rows they affected.
func (e *Engine) runWrite(ctx context.Context, w *globalWrite) (int64, error) {
	ctx, span := obs.StartSpan(ctx, obs.SpanWrite, w.op.String())
	defer span.End()
	writes, moved, err := w.writes, int64(-1), error(nil)
	switch {
	case w.op == opInsert:
		writes, err = insertWrites(w.scan.Table, w.sets, w.width)
	case w.moves:
		writes, moved, err = e.moveWrites(ctx, w)
	}
	if err != nil {
		return 0, err
	}
	n, err := e.applyWrites(ctx, writes, moved)
	if err == nil {
		span.SetInt("affected", n)
	}
	return n, err
}

// errNotWrite refuses a statement Exec does not run.
func errNotWrite(stmt sql.Statement) error {
	return fmt.Errorf("core: Exec runs INSERT, UPDATE and DELETE (use Query for SELECT), not %T", stmt)
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

// parsed is the kind of statement op is parsed from, for a message.
func (op writeOp) parsed() sql.Statement {
	return [...]sql.Statement{(*sql.InsertStmt)(nil), (*sql.UpdateStmt)(nil), (*sql.DeleteStmt)(nil)}[op]
}

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

// buildWrite is the write path's one builder: it builds stmt, an INSERT,
// an UPDATE or a DELETE, into w. An INSERT's rows are bound (insertSets);
// an UPDATE's or a DELETE's WHERE and SET are bound and, unless the
// UPDATE moves rows, split into its fragment writes (fragmentWrites).
func (e *Engine) buildWrite(ctx context.Context, stmt sql.Statement, w *globalWrite) (err error) {
	var table string
	var where expr.Expr
	var set []sql.Assignment
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		w.op = opInsert
		if w.scan.Table, err = e.cat.Table(s.Table); err != nil {
			return err
		}
		w.sets, w.width, err = insertSets(w.scan.Table, s)
		return err
	case *sql.UpdateStmt:
		w.op, table, where, set = opUpdate, s.Table, s.Where, s.Set
	case *sql.DeleteStmt:
		w.op, table, where = opDelete, s.Table, s.Where
	default:
		return errNotWrite(stmt)
	}
	tab, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	w.scan.Table = tab
	if w.scan.Filter, err = bindWriteExpr(where, tab); err != nil {
		return err
	}
	w.sets = make([]source.SetClause, len(set))
	for i, a := range set {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.sets[i].Col, err = tab.Schema.IndexOf("", a.Column); err != nil {
			return err
		}
		if w.sets[i].Value, err = bindWriteExpr(a.Value, tab); err != nil {
			return err
		}
	}
	if w.moves = movesRows(tab, w.sets); !w.moves {
		w.writes, err = fragmentWrites(tab, w.op, w.scan.Filter, w.sets)
	}
	return err
}

// bindWriteExpr binds a write statement's WHERE or SET value over the
// global schema.
func bindWriteExpr(ex expr.Expr, tab *catalog.GlobalTable) (expr.Expr, error) {
	if ex == nil {
		return nil, nil
	}
	bound, err := expr.Bind(ex, tab.Schema)
	if err != nil {
		return nil, err
	}
	return expr.FoldConstants(bound), nil
}

// insertSets binds an INSERT's literal rows to the global columns it
// names, all of them in order when it names none: row r is
// sets[r*width:(r+1)*width], and a column a row does not name is NULL.
func insertSets(tab *catalog.GlobalTable, ins *sql.InsertStmt) (sets []source.SetClause, width int, err error) {
	if len(tab.Fragments) == 0 {
		return nil, 0, fmt.Errorf("core: global table %q has no fragments", ins.Table)
	}
	width = cmp.Or(len(ins.Columns), tab.Schema.Len())
	sets = make([]source.SetClause, width*max(1, len(ins.Rows)))
	for i := range sets[:width] {
		sets[i].Col = i
		if len(ins.Columns) > 0 {
			if sets[i].Col, err = tab.Schema.IndexOf("", ins.Columns[i]); err != nil {
				return nil, 0, err
			}
		}
	}
	for ri, exprRow := range ins.Rows {
		if len(exprRow) != width {
			return nil, 0, fmt.Errorf("core: INSERT row %d has %d values, expected %d", ri+1, len(exprRow), width)
		}
		row := sets[ri*width : (ri+1)*width]
		for i, ex := range exprRow {
			row[i].Col = sets[i].Col
			if row[i].Value, err = expr.Bind(ex, &types.Schema{}); err != nil {
				return nil, 0, fmt.Errorf("core: INSERT row %d: %w", ri+1, err)
			}
		}
	}
	return sets[:width*len(ins.Rows)], width, nil
}

// insertWrites evaluates an INSERT's rows, bound by insertSets, and
// routes each to its fragment.
func insertWrites(tab *catalog.GlobalTable, sets []source.SetClause, width int) ([]fragWrite, error) {
	var writes []fragWrite
	for lo := 0; lo < len(sets); lo += width {
		var err error
		if writes, err = insertRow(writes, tab, nil, sets[lo:lo+width]); err != nil {
			return nil, fmt.Errorf("core: INSERT row %d: %w", lo/width+1, err)
		}
	}
	return writes, nil
}

// insertRow is the write path's one row helper. It makes a global row of
// base and the clauses (source.SetRow) and appends it, in the remote
// layout, to the insert among inserts — one a fragment, in catalog order
// — of the one fragment that holds it (catalog.Fragment.Holds).
func insertRow(inserts []fragWrite, tab *catalog.GlobalTable, base types.Row, sets []source.SetClause) ([]fragWrite, error) {
	global, err := source.SetRow(tab.Schema, base, sets)
	if err != nil {
		return nil, err
	}
	var frag *catalog.Fragment
	for _, f := range tab.Fragments {
		switch ok, err := f.Holds(global); {
		case err != nil:
			return nil, err
		case ok && frag != nil:
			return nil, fmt.Errorf("both %s.%s and %s.%s may hold the row; INSERT target is ambiguous",
				frag.Source, frag.RemoteTable, f.Source, f.RemoteTable)
		case ok:
			frag = f
		}
	}
	if frag == nil {
		return nil, fmt.Errorf("no fragment holds the row: each one's partition predicate or constant-mapped columns refuse it")
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

// toRemoteRow converts a global row the fragment holds into its remote
// layout.
func toRemoteRow(frag *catalog.Fragment, tab *catalog.GlobalTable, global types.Row) (types.Row, error) {
	remote := make(types.Row, frag.Info().Schema.Len())
	for g, m := range frag.Columns {
		gv := global[g]
		if m.RemoteCol < 0 || gv.IsNull() {
			continue
		}
		rv, ok := m.ToRemote(gv)
		if !ok {
			return nil, fmt.Errorf("column %s: value %s is not representable at %s.%s",
				tab.Schema.Columns[g].Name, gv.String(), frag.Source, frag.RemoteTable)
		}
		remote[m.RemoteCol] = rv
	}
	return remote, nil
}

// fragmentWrites builds the fragment writes of an UPDATE or DELETE: for
// each fragment the filter does not prune (catalog.Fragment.Split), the
// filter in the remote representation — or the statement refused,
// naming what has no exact remote form — and, for an UPDATE, the SET.
func fragmentWrites(tab *catalog.GlobalTable, op writeOp, filter expr.Expr, sets []source.SetClause) ([]fragWrite, error) {
	var writes []fragWrite
	for _, frag := range tab.Fragments {
		remote, kept, pruned := frag.Split(filter, func(expr.Expr) bool { return true })
		switch {
		case pruned:
			continue
		case kept != nil:
			return nil, fmt.Errorf("core: WHERE predicate %s is not expressible at %s.%s", kept, frag.Source, frag.RemoteTable)
		}
		fw := fragWrite{frag: frag, op: op, filter: remote}
		if op == opUpdate {
			fw.set = make([]source.SetClause, len(sets))
			for i, sc := range sets {
				rv, ok := frag.TranslateValue(sc.Value, sc.Col)
				if !ok {
					return nil, fmt.Errorf("core: UPDATE value %s is not translatable for %s.%s", sc.Value, frag.Source, frag.RemoteTable)
				}
				fw.set[i] = source.SetClause{Col: frag.Columns[sc.Col].RemoteCol, Value: rv}
			}
		}
		writes = append(writes, fw)
	}
	return writes, nil
}

// movesRows reports whether an UPDATE's SET writes a column that decides
// which fragment holds a row (catalog.Fragment.Decides), so that a row it
// writes may belong to another fragment afterwards.
func movesRows(tab *catalog.GlobalTable, sets []source.SetClause) bool {
	return slices.ContainsFunc(sets, func(sc source.SetClause) bool {
		return slices.ContainsFunc(tab.Fragments, func(f *catalog.Fragment) bool { return f.Decides(sc.Col) })
	})
}

// moveWrites builds the fragment writes of w, an UPDATE that moves rows:
// the statement's DELETE, then the inserts of the new rows. It reads the
// rows the filter matches through the read path and applies the SET to
// each at the mediator, and returns the number of rows read.
func (e *Engine) moveWrites(ctx context.Context, w *globalWrite) ([]fragWrite, int64, error) {
	tab, filter := w.scan.Table, w.scan.Filter
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
		if inserts, err = insertRow(inserts, tab, old, w.sets); err != nil {
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
// catalog fragment order, or, a kept write's, in the order its first run
// sorted them into, which the sort leaves as it is. One write is one
// autocommit call. Several run under the coordinator, one transaction
// per source — also when the source is one, so that the statement is atomic within a participant as
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
	byParticipant(writes)
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

// byParticipant sorts writes by their participants' names, each one's
// writes in the order they came.
func byParticipant(writes []fragWrite) {
	slices.SortStableFunc(writes, func(a, b fragWrite) int { return cmp.Compare(a.frag.Source, b.frag.Source) })
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
